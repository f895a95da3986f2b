package core

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/meta"
	"repro/internal/workload"
)

// corpusTestTasks builds n deterministic base tasks over the case-study
// space: each task's history, meta-feature, and fit seed are pure functions
// of its index, so the eager and lazy paths can construct byte-identical
// learners independently.
func corpusTestTasks(t *testing.T, n int) ([]bo.History, [][]float64) {
	t.Helper()
	hists := make([]bo.History, n)
	metas := make([][]float64, n)
	for i := 0; i < n; i++ {
		off := float64(i) / float64(n)
		hists[i] = sampleHistory(twitterEvaluator(int64(100+i)), 8, off)
		metas[i] = []float64{off, 1 - off}
	}
	return hists, metas
}

func corpusTestConfig() Config {
	cfg := DefaultConfig(7)
	cfg.InitIters = 3
	cfg.Acq = fastAcq()
	cfg.TargetMetaFeature = []float64{0.25, 0.75}
	cfg.DynamicSamples = 30
	cfg.DilutionGuard = true
	return cfg
}

// eagerTraceSHA256 is the sha256 of sessionTrace for the eager all-learners
// arm of TestCorpusSessionBitIdenticalToEager, recorded on amd64 at the last
// commit that had one (bcb729b, where a Base field on Config handed every
// fitted learner to the session). Floating-point contraction differs across
// architectures, so the literal is only asserted on amd64.
const eagerTraceSHA256 = "bef986142986cbae0c6d8cc3da448ff947ee931f6597bd8bd2d9d6fffb3efd2c"

// TestCorpusSessionBitIdenticalToEager is the differential gate that
// licensed deleting the eager all-learners path: on the paper-scale 34-task
// corpus, routing base learners through the Corpus — exact fallback, forced
// shortlisting with K covering the whole corpus, or already-fitted learners
// wrapped by meta.TasksOf — must reproduce the eager session bit for bit:
// identical θ traces, identical fig6-style RGPE weight dynamics. The eager
// arm survives as its recorded trace digest.
func TestCorpusSessionBitIdenticalToEager(t *testing.T) {
	const n = 34
	hists, metas := corpusTestTasks(t, n)

	fit := func(i int) (*meta.BaseLearner, error) {
		return meta.NewBaseLearnerSparse(fmt.Sprintf("task%02d", i), "w", "A",
			metas[i], hists[i], 3, int64(200+i), gp.SparseConfig{})
	}
	lazyTasks := make([]meta.CorpusTask, n)
	fitted := make([]*meta.BaseLearner, n)
	for i := 0; i < n; i++ {
		lazyTasks[i] = meta.CorpusTask{
			ID:          fmt.Sprintf("task%02d", i),
			MetaFeature: metas[i],
			Fit:         func() (*meta.BaseLearner, error) { return fit(i) },
		}
		bl, err := fit(i)
		if err != nil {
			t.Fatal(err)
		}
		fitted[i] = bl
	}

	run := func(corpus *meta.Corpus) string {
		cfg := corpusTestConfig()
		cfg.Corpus = corpus
		res, err := New(cfg).Run(twitterEvaluator(7), 8)
		if err != nil {
			t.Fatal(err)
		}
		return sessionTrace(res)
	}

	exact := run(meta.NewCorpus(lazyTasks, meta.CorpusOptions{}))
	// Forced shortlisting with K = n: every task still participates, the
	// scatter/active-id bookkeeping runs for real, and the trace must not
	// move.
	full := run(meta.NewCorpus(lazyTasks, meta.CorpusOptions{ExactThreshold: -1, ShortlistK: n}))
	if full != exact {
		t.Fatalf("corpus full-K shortlist session diverges from exact fallback:\n%s\nvs\n%s", full, exact)
	}
	resident := run(meta.NewCorpus(meta.TasksOf(fitted...), meta.CorpusOptions{}))
	if resident != exact {
		t.Fatalf("session over already-fitted learners diverges from lazily fitted ones:\n%s\nvs\n%s", resident, exact)
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(exact))); got != eagerTraceSHA256 {
		t.Fatalf("corpus session diverges from the recorded eager all-learners session: trace sha256 %s, want %s\n%s",
			got, eagerTraceSHA256, exact)
	}
}

// Trace digests recorded on amd64 at 2352159, the commit before the tuner's
// unset options became constants. The drift, shortlist and sparse paths are
// otherwise only compared with themselves across GOMAXPROCS, so a constant
// folded to the wrong value would move every arm of those tests together;
// these literals are what notices.
const (
	driftShortlistSparseTraceSHA256 = "039a7185a921ca0c8710666dbe96f2578613497f6d4723d525950a9771605d1a"
	scratchTraceSHA256              = "7e576efd1d5352d78fc97452b31dcd8bd914880657dbe9f10ee9db89107ebb1d"
)

// TestDriftShortlistSparseAndScratchTracesPinned holds two sessions to
// recorded digests: (i) a drift-aware session over a diurnal timeline whose
// corpus shortlists 4 of 12 signature-space tasks and whose surrogate goes
// sparse mid-session — translations fire and the trust region shrinks and
// grows, so the drift defaults (thresholds, forgetting, ageing, radii,
// warm-up), the shortlist and the anchor path all feed the trace — and (ii)
// a session without meta-learning (LHS design, warm-started hyperparameter
// search, batched acquisition).
func TestDriftShortlistSparseAndScratchTracesPinned(t *testing.T) {
	const n, iters = 12, 30
	hists, _ := corpusTestTasks(t, n)
	tasks := make([]meta.CorpusTask, n)
	for i := 0; i < n; i++ {
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
	cfg := driftConfig(7)
	cfg.DynamicSamples = 30
	cfg.Corpus = meta.NewCorpus(tasks, meta.CorpusOptions{ExactThreshold: -1, ShortlistK: 4})
	cfg.TargetMetaFeature = workload.Twitter().Signature()
	cfg.Sparse = gp.SparseConfig{Threshold: 8, MaxAnchors: 6, ReselectEvery: 3}
	res, err := New(cfg).Run(timelineEvaluator(t, "diurnal", 7, iters), iters)
	if err != nil {
		t.Fatal(err)
	}
	translations := 0
	for _, it := range res.Iterations {
		if it.DriftTier == DriftTranslate {
			translations++
		}
		if it.Shortlist > 4 {
			t.Fatalf("iteration %d: shortlist %d exceeds K=4", it.Index, it.Shortlist)
		}
	}
	if !cfg.Corpus.Shortlisting() || translations == 0 {
		t.Fatalf("pinned drift session no longer covers its paths: shortlisting=%v, %d translations",
			cfg.Corpus.Shortlisting(), translations)
	}
	drift := driftTrace(res)

	scfg := corpusTestConfig()
	scfg.TargetMetaFeature = nil
	sres, err := New(scfg).Run(twitterEvaluator(7), 10)
	if err != nil {
		t.Fatal(err)
	}
	scratch := sessionTrace(sres)

	if runtime.GOARCH != "amd64" {
		return
	}
	for _, c := range []struct{ name, trace, want string }{
		{"drift+shortlist+sparse", drift, driftShortlistSparseTraceSHA256},
		{"w/o-ML", scratch, scratchTraceSHA256},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.trace))); got != c.want {
			t.Errorf("%s session diverges from its recorded trace: sha256 %s, want %s\n%s",
				c.name, got, c.want, c.trace)
		}
	}
}

// TestCorpusShortlistSessionDeterministicAcrossGOMAXPROCS extends the
// session determinism contract to the sublinear path: with shortlisting
// and lazy fits, the iteration trace must be bit-identical at GOMAXPROCS=1
// and oversubscribed.
func TestCorpusShortlistSessionDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 20
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		hists, metas := corpusTestTasks(t, n)
		tasks := make([]meta.CorpusTask, n)
		for i := 0; i < n; i++ {
			i := i
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
		cfg.Corpus = meta.NewCorpus(tasks, meta.CorpusOptions{ExactThreshold: -1, ShortlistK: 6})
		res, err := New(cfg).Run(twitterEvaluator(7), 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Iterations {
			if it.Shortlist > 6 {
				t.Fatalf("iteration %d: shortlist %d exceeds K=6", it.Index, it.Shortlist)
			}
			if len(it.Weights) > 0 && len(it.Weights) != n+1 {
				t.Fatalf("iteration %d: weight vector has %d entries, want %d (full corpus + target)",
					it.Index, len(it.Weights), n+1)
			}
		}
		return sessionTrace(res)
	}
	serial := run(1)
	if again := run(1); again != serial {
		t.Fatal("corpus session not deterministic at GOMAXPROCS=1")
	}
	procs := runtime.NumCPU()
	if procs < 4 {
		procs = 4
	}
	if parallel := run(procs); parallel != serial {
		t.Fatalf("corpus session trace differs between GOMAXPROCS=1 and %d:\n%s\nvs\n%s",
			procs, serial, parallel)
	}
}
