package experiments

import (
	"fmt"
	"time"

	"repro/internal/bo"
	"repro/internal/meta"
	"repro/internal/rng"
)

// CorpusBench is a prepared corpus-scale meta-iteration scenario: one
// synthetic N-task corpus behind both the all-learners baseline (every task
// fitted and weighted every iteration) and the shortlisting Corpus path.
// The root BenchmarkMetaIteration and the restune-bench -corpus-size flag
// share it, so the CLI and the benchmark measure the same bodies.
type CorpusBench struct {
	N          int
	Target     *meta.BaseLearner
	Corpus     *meta.Corpus
	Baseline   []*meta.BaseLearner
	Candidates [][]float64
	seed       int64
	samples    int
}

const (
	corpusBenchMetaDim = 16
	corpusBenchKnobDim = 8
	corpusBenchHistLen = 20
	// corpusBenchFitPool bounds how many distinct TriGPs the all-learners
	// baseline fits: surrogates are shared cyclically across the N baseline
	// learners, which keeps setup at N=4000 tractable without distorting
	// the measured contrast — dynamic-weight and ensemble-scoring cost per
	// learner is a function of the target history and candidate block, not
	// of which surrogate backs the learner.
	corpusBenchFitPool = 16
)

// NewCorpusBench builds the scenario for an n-task corpus. Setup fits the
// target, a pool of baseline surrogates, and warms the corpus shortlist so
// iteration timings measure steady-state per-iteration cost, not one-time
// fits.
func NewCorpusBench(n int, seed int64) (*CorpusBench, error) {
	tasks := meta.SyntheticCorpus(n, corpusBenchMetaDim, corpusBenchKnobDim, corpusBenchHistLen, seed)

	tgt := meta.SyntheticCorpus(1, corpusBenchMetaDim, corpusBenchKnobDim, 12, seed+1)[0]
	target, err := tgt.Fit()
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting bench target: %w", err)
	}

	pool := corpusBenchFitPool
	if pool > n {
		pool = n
	}
	fitted := make([]*meta.BaseLearner, pool)
	for i := 0; i < pool; i++ {
		bl, err := tasks[i].Fit()
		if err != nil {
			return nil, fmt.Errorf("experiments: fitting bench pool task %d: %w", i, err)
		}
		fitted[i] = bl
	}
	baseline := make([]*meta.BaseLearner, n)
	for i := 0; i < n; i++ {
		src := fitted[i%pool]
		baseline[i] = meta.NewBaseLearnerFromSurrogate(tasks[i].ID, tasks[i].ID, "synth",
			tasks[i].MetaFeature, src.History, src.Surrogate)
	}

	corpus := meta.NewCorpus(tasks, meta.CorpusOptions{})
	if err := corpus.Activate(target.MetaFeature); err != nil {
		return nil, fmt.Errorf("experiments: activating bench corpus: %w", err)
	}
	if _, _, err := corpus.ActiveLearners(); err != nil {
		return nil, fmt.Errorf("experiments: warming bench corpus: %w", err)
	}

	r := rng.Derive(seed, "corpus-bench:candidates")
	cands := make([][]float64, 64)
	for i := range cands {
		x := make([]float64, corpusBenchKnobDim)
		for d := range x {
			x[d] = r.Float64()
		}
		cands[i] = x
	}
	return &CorpusBench{
		N: n, Target: target, Corpus: corpus, Baseline: baseline,
		Candidates: cands, seed: seed, samples: 100,
	}, nil
}

// BaselineIteration runs one all-learners meta iteration: dynamic RGPE
// weights over every learner in the corpus, then ensemble batch scoring of
// the candidate block.
func (cb *CorpusBench) BaselineIteration(iter int) []float64 {
	r := rng.Derive(cb.seed, fmt.Sprintf("dyn:%d", iter))
	w := meta.DynamicWeightsOpts(cb.Baseline, cb.Target,
		meta.DynamicOptions{Samples: cb.samples}, r)
	ens := meta.NewEnsemble(cb.Baseline, cb.Target, w)
	var post bo.BatchPosterior
	ens.PredictBatch(cb.Candidates, &post)
	return w
}

// CorpusIteration runs the same iteration through the shortlist: only
// active learners get weights and score candidates; the full-corpus weight
// vector is reconstructed by scatter, as the tuner loop does.
func (cb *CorpusBench) CorpusIteration(iter int) ([]float64, error) {
	base, ids, err := cb.Corpus.ActiveLearners()
	if err != nil {
		return nil, err
	}
	r := rng.Derive(cb.seed, fmt.Sprintf("dyn:%d", iter))
	w := meta.DynamicWeightsOpts(base, cb.Target,
		meta.DynamicOptions{Samples: cb.samples}, r)
	ens := meta.NewEnsemble(base, cb.Target, w)
	var post bo.BatchPosterior
	ens.PredictBatch(cb.Candidates, &post)
	return cb.Corpus.ScatterWeights(ids, w), nil
}

// CorpusScale measures per-iteration meta-learning cost against corpus size
// for both paths — the reproducible CLI counterpart of
// BenchmarkMetaIteration (restune-bench -corpus-size N -corpus-seed S).
func CorpusScale(sizes []int, seed int64, iters int) (*Report, error) {
	if iters <= 0 {
		iters = 10
	}
	rep := newReport("corpus", "Corpus scaling: per-iteration meta cost vs corpus size")
	rep.Addf("%8s %12s %16s %16s %8s", "N", "shortlist", "corpus ns/iter", "baseline ns/iter", "ratio")
	var corpusNs, baselineNs, ratios []float64
	for _, n := range sizes {
		cb, err := NewCorpusBench(n, seed)
		if err != nil {
			return nil, err
		}
		if _, err := cb.CorpusIteration(0); err != nil { // warm
			return nil, err
		}
		cb.BaselineIteration(0)

		t0 := time.Now()
		for i := 1; i <= iters; i++ {
			if _, err := cb.CorpusIteration(i); err != nil {
				return nil, err
			}
		}
		corpus := float64(time.Since(t0).Nanoseconds()) / float64(iters)

		t0 = time.Now()
		for i := 1; i <= iters; i++ {
			cb.BaselineIteration(i)
		}
		baseline := float64(time.Since(t0).Nanoseconds()) / float64(iters)

		shortlist := len(cb.Corpus.ActiveIDs())
		rep.Addf("%8d %12d %16.0f %16.0f %8.3f", n, shortlist, corpus, baseline, corpus/baseline)
		corpusNs = append(corpusNs, corpus)
		baselineNs = append(baselineNs, baseline)
		ratios = append(ratios, corpus/baseline)
	}
	rep.AddSeries("corpus_ns_per_iter", corpusNs)
	rep.AddSeries("baseline_ns_per_iter", baselineNs)
	rep.AddSeries("ratio", ratios)
	return rep, nil
}
