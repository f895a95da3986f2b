package meta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bo"
)

func TestDilutionGuardDiscardsBadLearners(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	target := mustLearner(t, "t", nil, synthHistory(20, 0.3, 10, 0, 5), 5)
	// Anti-correlated learner: its surface inverts the target's ordering.
	bad := mustLearner(t, "bad", nil, antiHistory(30, 0.3, 6), 6)
	// Mild learner: similar optimum.
	good := mustLearner(t, "good", nil, synthHistory(30, 0.32, 200, 50, 7), 7)

	guarded := DynamicWeightsOpts([]*BaseLearner{bad, good}, target,
		DynamicOptions{Samples: 200, DilutionGuard: true}, r)
	if guarded[0] != 0 {
		t.Fatalf("anti-correlated learner should be discarded by the guard: %v", guarded)
	}
	sum := 0.0
	for _, w := range guarded {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights must still sum to 1: %v", guarded)
	}
}

// antiHistory builds a task whose res ordering is inverted relative to
// synthHistory's (res decreases toward the target's optimum region).
func antiHistory(n int, opt float64, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	var h bo.History
	for i := 0; i < n; i++ {
		x := float64(i)/float64(n-1) + 0.001*r.NormFloat64()
		res := -10*(x-opt)*(x-opt) + 100
		h = append(h, bo.Observation{
			Theta: []float64{x},
			Res:   res,
			Tps:   1000 + res*2,
			Lat:   10 - res*0.05,
		})
	}
	return h
}

func TestDilutionGuardKeepsGoodLearners(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	target := mustLearner(t, "t", nil, synthHistory(15, 0.3, 10, 0, 15), 15)
	twin := mustLearner(t, "twin", nil, synthHistory(40, 0.3, 50, 5, 16), 16)
	w := DynamicWeightsOpts([]*BaseLearner{twin}, target,
		DynamicOptions{Samples: 200, DilutionGuard: true}, r)
	if w[0] == 0 {
		t.Fatalf("a well-aligned learner must survive the guard: %v", w)
	}
}

func TestPercentileInt(t *testing.T) {
	vals := []int{5, 1, 3, 2, 4}
	scratch := make([]int, 8)
	if got := percentileInt(scratch, vals, 0.5); got != 3 {
		t.Fatalf("median: %d", got)
	}
	if got := percentileInt(scratch, vals, 0); got != 1 {
		t.Fatalf("min: %d", got)
	}
	if got := percentileInt(scratch, vals, 1); got != 5 {
		t.Fatalf("max: %d", got)
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Fatal("percentileInt mutated its input")
	}
}

func TestWeightedVarianceEnsemble(t *testing.T) {
	b1 := mustLearner(t, "b1", nil, synthHistory(15, 0.3, 10, 0, 1), 1)
	target := mustLearner(t, "t", nil, synthHistory(6, 0.3, 10, 0, 3), 3)
	e := NewEnsemble([]*BaseLearner{b1}, target, []float64{1, 1})
	x := []float64{0.4}

	_, vTargetOnly := e.Predict(bo.Res, x)
	_, vt := target.Predict(bo.Res, x)
	if vTargetOnly != vt {
		t.Fatal("default ensemble must use target-only variance (Eq. 7)")
	}

	we := e.WithWeightedVariance()
	_, vWeighted := we.Predict(bo.Res, x)
	_, v1 := b1.Predict(bo.Res, x)
	want := (v1 + vt) / 2
	if math.Abs(vWeighted-want) > 1e-9 {
		t.Fatalf("weighted variance: got %v want %v", vWeighted, want)
	}
	// The original ensemble is unchanged (WithWeightedVariance copies).
	if _, v := e.Predict(bo.Res, x); v != vt {
		t.Fatal("WithWeightedVariance must not mutate the receiver")
	}
}

// TestCorpusDynamicWeightsRevalidate drives Corpus.DynamicWeights through the
// changes its memo must notice — a growing history, a θ rewritten in place,
// a θ replaced by an equal copy, a reordered learner list, a shorter history
// and a re-activation — and holds it after every call to a fresh
// DynamicWeightsOpts, and every memo entry to the learner's own posterior.
func TestCorpusDynamicWeightsRevalidate(t *testing.T) {
	var base []*BaseLearner
	for i := 0; i < 4; i++ {
		base = append(base, mustLearner(t, fmt.Sprintf("b%d", i), nil,
			synthHistory(15+i, 0.2+0.2*float64(i), 10, float64(i), int64(40+i)), int64(40+i)))
	}
	c := NewCorpus(TasksOf(base...), CorpusOptions{})
	full := synthHistory(14, 0.35, 12, 1, 50)
	opts := DynamicOptions{Samples: 60, DilutionGuard: true}
	step := 0
	check := func(what string, learners []*BaseLearner, h bo.History) {
		t.Helper()
		step++
		target := mustLearner(t, "target", nil, h, 51)
		got := c.DynamicWeights(learners, target, opts, rand.New(rand.NewSource(int64(step))))
		want := DynamicWeightsOpts(learners, target, opts, rand.New(rand.NewSource(int64(step))))
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: memoized weights %v, fresh %v", what, got, want)
			}
		}
		if len(h) < 2 {
			return
		}
		for i, p := range c.memo.posts {
			if p.learner != learners[i] || p.covered() != len(h) {
				t.Fatalf("%s: entry %d holds %d points of learner %s, want %d of %s",
					what, i, p.covered(), p.learner.TaskID, len(h), learners[i].TaskID)
			}
			for mi, m := range bo.Metrics {
				for j, o := range h {
					mu, v := learners[i].Predict(m, o.Theta)
					if math.Float64bits(p.mu[mi][j]) != math.Float64bits(mu) ||
						math.Float64bits(p.sd[mi][j]) != math.Float64bits(math.Sqrt(v)) {
						t.Fatalf("%s: learner %d metric %v point %d is stale", what, i, m, j)
					}
				}
			}
		}
	}
	for n := 1; n <= 10; n++ {
		check(fmt.Sprintf("grow to %d", n), base, full[:n])
	}
	full[3].Theta[0] += 0.25 // in place: same storage, new value
	check("rewritten in place", base, full[:10])
	full[5].Theta = append([]float64(nil), full[5].Theta...) // new storage, same value
	check("equal copy", base, full[:11])
	rev := []*BaseLearner{base[3], base[1], base[2], base[0]}
	check("reordered learners", rev, full[:12])
	check("fewer learners", base[:2], full[:12])
	check("shorter history", base, full[:7])
	if err := c.Activate(nil); err != nil {
		t.Fatal(err)
	}
	check("re-activated", base, full[:14])
}
