package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gp"
	"repro/internal/meta"
	"repro/internal/rng"
	"repro/internal/workload"
)

// memoCheck is ResTune's policy with a check after every dynamic-phase
// Update: the weights the session took from the corpus's memoized
// meta.Corpus.DynamicWeights must equal, bit for bit, the weights a fresh
// meta.DynamicWeightsOpts computes from the same learners, target and stream.
type memoCheck struct {
	*restunePolicy
	t       *testing.T
	checked int
}

func (m *memoCheck) Update(v *View) error {
	if err := m.restunePolicy.Update(v); err != nil || m.phase != "dynamic" {
		return err
	}
	cfg := &m.cfg
	base, ids, err := cfg.Corpus.ActiveLearners()
	if err != nil {
		return err
	}
	target := meta.NewBaseLearnerFromSurrogate("target", "target", "target", v.MetaFeature, v.History, m.tri)
	w := meta.DynamicWeightsOpts(base, target,
		meta.DynamicOptions{Samples: cfg.DynamicSamples, DilutionGuard: cfg.DilutionGuard},
		rng.Derive(v.Seed, fmt.Sprintf("dyn:%d", v.Iter)))
	want := cfg.Corpus.ScatterWeights(ids, meta.NewEnsemble(base, target, w).Weights())
	for i := range want {
		if math.Float64bits(m.weights[i]) != math.Float64bits(want[i]) {
			m.t.Fatalf("iter %d: memoized weights %v, fresh %v", v.Iter, m.weights, want)
		}
	}
	m.checked++
	return nil
}

// runMemoChecked runs cfg's ResTune session under memoCheck and returns the
// result and how many iterations were checked.
func runMemoChecked(t *testing.T, cfg Config, ev Evaluator, iters int) (*Result, int) {
	t.Helper()
	check := &memoCheck{restunePolicy: &restunePolicy{cfg: cfg, name: "ResTune"}, t: t}
	cfg.Policy = check
	res, err := New(cfg).Run(ev, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res, check.checked
}

// TestMemoizedWeightsMatchFresh holds the per-session base-posterior memo to
// the one-shot computation at every dynamic iteration of two sessions: the
// paper-scale 34-task corpus on the exact path, and a shortlisting corpus
// whose drift resets re-activate it mid-session (dropping the memo and
// changing the learner list under it). A history rewritten in place is
// covered in package meta (TestCorpusDynamicWeightsRevalidate).
func TestMemoizedWeightsMatchFresh(t *testing.T) {
	t.Run("exact-34", func(t *testing.T) {
		const n, iters = 34, 14
		hists, metas := corpusTestTasks(t, n)
		tasks := make([]meta.CorpusTask, n)
		for i := range tasks {
			tasks[i] = meta.CorpusTask{
				ID:          fmt.Sprintf("task%02d", i),
				MetaFeature: metas[i],
				Fit: func() (*meta.BaseLearner, error) {
					return meta.NewBaseLearnerSparse(fmt.Sprintf("task%02d", i), "w", "A",
						metas[i], hists[i], 3, int64(200+i), gp.SparseConfig{})
				},
			}
		}
		cfg := corpusTestConfig()
		cfg.Corpus = meta.NewCorpus(tasks, meta.CorpusOptions{})
		_, checked := runMemoChecked(t, cfg, twitterEvaluator(7), iters)
		if cfg.Corpus.Shortlisting() || checked != iters-cfg.InitIters {
			t.Fatalf("shortlisting=%v, %d of %d iterations checked", cfg.Corpus.Shortlisting(), checked, iters-cfg.InitIters)
		}
	})
	t.Run("shortlist-drift-reset", func(t *testing.T) {
		const n, iters = 12, 24
		hists, _ := corpusTestTasks(t, n)
		tasks := make([]meta.CorpusTask, n)
		for i := range tasks {
			w := workload.Twitter()
			w.Profile = w.Profile.AtLoad(0.4+0.15*float64(i), 0)
			sig := w.Signature()
			tasks[i] = meta.CorpusTask{
				ID:          fmt.Sprintf("task%02d", i),
				MetaFeature: sig,
				Fit: func() (*meta.BaseLearner, error) {
					return meta.NewBaseLearnerSparse(fmt.Sprintf("task%02d", i), "w", "A",
						sig, hists[i], 3, int64(200+i), gp.SparseConfig{})
				},
			}
		}
		cfg := driftConfig(5)
		cfg.Drift = &DriftConfig{ResetThreshold: driftThreshold} // every event resets
		cfg.DynamicSamples = 30
		cfg.Corpus = meta.NewCorpus(tasks, meta.CorpusOptions{ExactThreshold: -1, ShortlistK: 4})
		cfg.TargetMetaFeature = workload.Twitter().Signature()
		res, checked := runMemoChecked(t, cfg, timelineEvaluator(t, "spike", 5, iters), iters)
		resets := 0
		for _, it := range res.Iterations {
			if it.DriftTier == DriftReset && it.Index > cfg.InitIters && it.Index < iters {
				resets++
			}
		}
		if !cfg.Corpus.Shortlisting() || resets == 0 || checked != iters-cfg.InitIters {
			t.Fatalf("shortlisting=%v, %d mid-session resets, %d of %d iterations checked",
				cfg.Corpus.Shortlisting(), resets, checked, iters-cfg.InitIters)
		}
	})
}
