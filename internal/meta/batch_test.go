package meta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
)

func metaBatchHistory(n, dim int, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	var h bo.History
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = r.Float64()
			s += (x[d] - 0.4) * (x[d] - 0.4)
		}
		h = append(h, bo.Observation{
			Theta: x,
			Res:   50 + 30*s + r.NormFloat64(),
			Tps:   10000 - 500*s + 10*r.NormFloat64(),
			Lat:   5 + s + 0.05*r.NormFloat64(),
		})
	}
	return h
}

// TestEnsemblePredictBatchBitIdentical pins the ensemble batch path to the
// point-wise Eq. 6/7 combination, and both to fullPosterior, across weight
// schemas: zero-weight learners skipped, target-only variance (base learners
// answer means alone), weighted-variance ablation, and the no-target static
// bootstrap. The base learners include a sparse one and one whose three
// metric GPs hold one kernel.
func TestEnsemblePredictBatchBitIdentical(t *testing.T) {
	var base []*BaseLearner
	for i := 0; i < 4; i++ {
		n, sparse := 20, gp.SparseConfig{}
		if i == 0 {
			n, sparse = 30, gp.SparseConfig{Threshold: 20, MaxAnchors: 12, ReselectEvery: 4}
		}
		bl, err := NewBaseLearnerSparse(fmt.Sprintf("t%d", i), "w", "A", nil,
			metaBatchHistory(n, 3, int64(i+1)), 3, int64(i+1), sparse)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, bl)
	}
	shared := base[2].Surrogate
	for _, m := range []bo.Metric{bo.Tps, bo.Lat} {
		if err := shared.GP(m).AdoptHyperparamsFrom(shared.GP(bo.Res)); err != nil {
			t.Fatal(err)
		}
	}
	target, err := NewBaseLearnerSparse("target", "w", "A", nil, metaBatchHistory(15, 3, 99), 3, 99, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}

	X := make([][]float64, 30)
	r := rand.New(rand.NewSource(5))
	for j := range X {
		X[j] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}
	X = append(X, base[0].History[3].Theta) // a training point

	check := func(t *testing.T, e *Ensemble) {
		t.Helper()
		var post bo.BatchPosterior
		e.PredictBatch(X, &post)
		for _, m := range bo.Metrics {
			for j, x := range X {
				wm, wv := fullPosterior(e, m, x)
				pm, pv := e.Predict(m, x)
				for _, got := range [][2]float64{{pm, pv}, {post.Mu[m][j], post.Var[m][j]}} {
					if math.Float64bits(got[0]) != math.Float64bits(wm) || math.Float64bits(got[1]) != math.Float64bits(wv) {
						t.Fatalf("metric %v candidate %d: (%x, %x), full posterior (%x, %x)",
							m, j, got[0], got[1], wm, wv)
					}
				}
			}
		}
	}

	cases := []struct {
		name string
		e    *Ensemble
	}{
		{"mixed-weights", NewEnsemble(base, target, []float64{0.3, 0, 0.2, 0, 0.5})},
		{"target-only", NewEnsemble(base, target, []float64{0, 0, 0, 0, 1})},
		{"no-target", NewEnsemble(base, nil, []float64{0.4, 0.1, 0.25, 0.25, 0})},
		{"weighted-variance", NewEnsemble(base, target, []float64{0.3, 0.1, 0.2, 0.1, 0.3}).WithWeightedVariance()},
		{"zero-total", NewEnsemble(base, target, []float64{0, 0, 0, 0, 0})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.e) })
	}
}

// fullPosterior is the Eq. 6/7 combination with every base learner's full
// posterior computed, as the ensemble did before base learners answered
// means alone: the reference its means (and, under the weighted-variance
// ablation or without a target, its variances) must keep bit for bit.
func fullPosterior(e *Ensemble, m bo.Metric, x []float64) (mu, variance float64) {
	var sumW, sumWMu, sumWVar float64
	for i, b := range e.base {
		if w := e.weights[i]; w != 0 {
			bm, bv := b.Predict(m, x)
			sumW += w
			sumWMu += w * bm
			sumWVar += w * bv
		}
	}
	var tv float64
	if e.target != nil {
		var tm float64
		tm, tv = e.target.Predict(m, x)
		if w := e.weights[len(e.base)]; w > 0 {
			sumW += w
			sumWMu += w * tm
			sumWVar += w * tv
		}
	}
	if sumW == 0 {
		return 0, 1
	}
	if e.target != nil && !e.weightedVariance {
		return sumWMu / sumW, tv
	}
	return sumWMu / sumW, sumWVar / sumW
}

// TestBaseLearnerPredictBatch checks the delegation path.
func TestBaseLearnerPredictBatch(t *testing.T) {
	bl, err := NewBaseLearnerSparse("t", "w", "A", nil, metaBatchHistory(12, 2, 3), 2, 3, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{{0.2, 0.8}, {0.5, 0.5}}
	var post bo.BatchPosterior
	bl.PredictBatch(X, &post)
	for _, m := range bo.Metrics {
		for j, x := range X {
			wm, wv := bl.Predict(m, x)
			if post.Mu[m][j] != wm || post.Var[m][j] != wv {
				t.Fatalf("metric %v candidate %d mismatch", m, j)
			}
		}
	}
}
