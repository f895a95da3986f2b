package core

import (
	"testing"

	"repro/internal/bo"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/rng"
	"repro/internal/workload"
)

func twitterEvaluator(seed int64) *SimEvaluator {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return NewSimEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct)
}

// fastAcq keeps acquisition optimization cheap in tests.
func fastAcq() bo.OptimizerConfig {
	return bo.OptimizerConfig{RandomCandidates: 128, LocalStarts: 3, LocalSteps: 15, StepScale: 0.1}
}

func TestSimEvaluator(t *testing.T) {
	ev := twitterEvaluator(1)
	if ev.Space().Dim() != 3 {
		t.Fatal("space dim")
	}
	if ev.Resource() != dbsim.CPUPct {
		t.Fatal("resource kind")
	}
	d := ev.DefaultNative()
	m := ev.Measure(d)
	if m.TPS <= 0 || m.CPUUtilPct <= 0 {
		t.Fatal("measurement empty")
	}
	// DefaultNative returns a copy.
	d[0] = 999
	if ev.DefaultNative()[0] == 999 {
		t.Fatal("DefaultNative must not alias internal state")
	}
}

func TestResTuneWithoutMLFindsFeasibleImprovement(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Acq = fastAcq()
	tuner := New(cfg)
	if tuner.Name() != "ResTune-w/o-ML" {
		t.Fatalf("name: %s", tuner.Name())
	}
	res, err := tuner.Run(twitterEvaluator(3), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 31 { // default + 30
		t.Fatalf("iterations: %d", len(res.Iterations))
	}
	best, ok := res.BestFeasible()
	if !ok {
		t.Fatal("no feasible configuration found")
	}
	def := res.Iterations[0].Observation.Res
	if best.Res > def*0.6 {
		t.Fatalf("best feasible CPU %.1f%% should be well under default %.1f%%", best.Res, def)
	}
	// Phases: first 10 LHS, then CBO.
	if res.Iterations[1].Phase != "lhs" || res.Iterations[11].Phase != "cbo" {
		t.Fatalf("phases: %s, %s", res.Iterations[1].Phase, res.Iterations[11].Phase)
	}
	// Series is monotone non-increasing.
	series := res.BestFeasibleSeries()
	for i := 1; i < len(series); i++ {
		if series[i] > series[i-1]+1e-9 {
			t.Fatal("best-feasible series must be non-increasing")
		}
	}
	if res.ImprovementPct() < 40 {
		t.Fatalf("improvement %.1f%% too small", res.ImprovementPct())
	}
	if itb := res.IterationsToBest(); itb <= 0 || itb > 30 {
		t.Fatalf("iterations to best: %d", itb)
	}
}

// buildBaseLearners runs short ResTune-w/o-ML sessions on source workloads
// to build a small repository, as the paper's history collection does.
func buildBaseLearners(t *testing.T, sources []workload.Workload, space *knobs.Space, seed int64) []*meta.BaseLearner {
	t.Helper()
	ch, err := workload.NewCharacterizer(workload.Five(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var base []*meta.BaseLearner
	for i, w := range sources {
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed+int64(i), dbsim.WithHalfRAMBufferPool())
		ev := NewSimEvaluator(sim, space, dbsim.CPUPct)
		cfg := DefaultConfig(seed + int64(100+i))
		cfg.Acq = fastAcq()
		res, err := New(cfg).Run(ev, 20)
		if err != nil {
			t.Fatal(err)
		}
		mf := ch.MetaFeature(w, 2000, rng.Derive(seed, "mf:"+w.Name))
		bl, err := meta.NewBaseLearnerSparse(w.Name, w.Name, "A", mf, res.History(), space.Dim(), seed+int64(i), gp.SparseConfig{})
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, bl)
	}
	return base
}

func TestResTuneMetaBeatsScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	space := knobs.CaseStudySpace()
	// History: two Twitter variants (one close, one far).
	base := buildBaseLearners(t, []workload.Workload{
		workload.TwitterVariant(1), workload.TwitterVariant(5),
	}, space, 11)

	ch, err := workload.NewCharacterizer(workload.Five(), 11)
	if err != nil {
		t.Fatal(err)
	}
	targetMF := ch.MetaFeature(workload.Twitter(), 2000, rng.Derive(11, "target-mf"))

	budget := 14
	cfgMeta := DefaultConfig(5)
	cfgMeta.Acq = fastAcq()
	cfgMeta.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
	cfgMeta.TargetMetaFeature = targetMF
	metaRes, err := New(cfgMeta).Run(twitterEvaluator(5), budget)
	if err != nil {
		t.Fatal(err)
	}
	if metaRes.Method != "ResTune" {
		t.Fatalf("method name: %s", metaRes.Method)
	}

	cfgScratch := DefaultConfig(5)
	cfgScratch.Acq = fastAcq()
	scratchRes, err := New(cfgScratch).Run(twitterEvaluator(5), budget)
	if err != nil {
		t.Fatal(err)
	}

	// Within a small budget the meta-boosted run should be at least
	// competitive at the end (small tolerance for single-seed noise) and
	// clearly ahead early — the paper's Figure 3 behaviour: good configs
	// inside the first 10 iterations.
	mSeries, sSeries := metaRes.BestFeasibleSeries(), scratchRes.BestFeasibleSeries()
	if mBest, sBest := mSeries[budget], sSeries[budget]; mBest > sBest*1.05 {
		t.Fatalf("meta-boosted best %.2f should be competitive with scratch %.2f within %d iters", mBest, sBest, budget)
	}
	def := metaRes.Iterations[0].Observation.Res
	if mSeries[6] > def*0.8 {
		t.Fatalf("meta-boosted run should find a strong config early: iter-6 best %.2f vs default %.2f", mSeries[6], def)
	}
	// Weights recorded during static and dynamic phases.
	foundWeights := false
	for _, it := range metaRes.Iterations {
		if len(it.Weights) == len(base)+1 {
			foundWeights = true
			break
		}
	}
	if !foundWeights {
		t.Fatal("ensemble weights not recorded")
	}
	// Phase labels.
	if metaRes.Iterations[1].Phase != "static" {
		t.Fatalf("first phase: %s", metaRes.Iterations[1].Phase)
	}
	if metaRes.Iterations[12].Phase != "dynamic" {
		t.Fatalf("post-init phase: %s", metaRes.Iterations[12].Phase)
	}
}

func TestResTuneWithoutWorkloadCharUsesLHS(t *testing.T) {
	space := knobs.CaseStudySpace()
	base := buildBaseLearners(t, []workload.Workload{workload.TwitterVariant(1)}, space, 21)
	cfg := DefaultConfig(7)
	cfg.Acq = fastAcq()
	cfg.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
	cfg.UseWorkloadChar = false
	cfg.Name = "ResTune-w/o-Workload"
	res, err := New(cfg).Run(twitterEvaluator(7), 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "ResTune-w/o-Workload" {
		t.Fatalf("name: %s", res.Method)
	}
	if res.Iterations[1].Phase != "lhs" {
		t.Fatalf("ablation should initialize with LHS, got %s", res.Iterations[1].Phase)
	}
	if res.Iterations[11].Phase != "dynamic" {
		t.Fatalf("ablation should use dynamic weights after init, got %s", res.Iterations[11].Phase)
	}
}

func TestConvergenceRule(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Acq = fastAcq()
	cfg.ConvergenceWindow = 10
	res, err := New(cfg).Run(twitterEvaluator(9), 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("session did not converge within budget; rule exercised but not triggered")
	}
	if len(res.Iterations) >= 101 {
		t.Fatal("converged session should stop early")
	}
}

func TestTimingRecorded(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Acq = fastAcq()
	res, err := New(cfg).Run(twitterEvaluator(13), 12)
	if err != nil {
		t.Fatal(err)
	}
	it := res.Iterations[12] // a CBO iteration
	if it.ModelUpdate <= 0 || it.Recommend <= 0 || it.Replay <= 0 {
		t.Fatalf("stage timings missing: %+v", it)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig(17)
		cfg.Acq = fastAcq()
		res, err := New(cfg).Run(twitterEvaluator(17), 15)
		if err != nil {
			t.Fatal(err)
		}
		return res.BestFeasibleSeries()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sessions with equal seeds diverged at iter %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWeightSchemas(t *testing.T) {
	space := knobs.CaseStudySpace()
	base := buildBaseLearners(t, []workload.Workload{workload.TwitterVariant(1)}, space, 51)
	ch, err := workload.NewCharacterizer(workload.Five(), 51)
	if err != nil {
		t.Fatal(err)
	}
	mf := ch.MetaFeature(workload.Twitter(), 2000, rng.Derive(51, "mf"))

	run := func(schema WeightSchema, guard bool) *Result {
		cfg := DefaultConfig(13)
		cfg.Acq = fastAcq()
		cfg.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
		cfg.TargetMetaFeature = mf
		cfg.Schema = schema
		cfg.DilutionGuard = guard
		cfg.InitIters = 4
		res, err := New(cfg).Run(twitterEvaluator(13), 8)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	static := run(StaticOnlySchema, false)
	for _, it := range static.Iterations[1:] {
		if it.Phase != "static" {
			t.Fatalf("static-only schema produced phase %q", it.Phase)
		}
	}
	dynamic := run(DynamicOnlySchema, false)
	for _, it := range dynamic.Iterations[1:] {
		if it.Phase != "dynamic" {
			t.Fatalf("dynamic-only schema produced phase %q", it.Phase)
		}
	}
	adaptive := run(AdaptiveSchema, true) // with guard
	if adaptive.Iterations[1].Phase != "static" || adaptive.Iterations[5].Phase != "dynamic" {
		t.Fatalf("adaptive phases: %s, %s", adaptive.Iterations[1].Phase, adaptive.Iterations[5].Phase)
	}
	// Schema names.
	if AdaptiveSchema.String() != "adaptive" || StaticOnlySchema.String() != "static-only" ||
		DynamicOnlySchema.String() != "dynamic-only" {
		t.Fatal("schema names")
	}
}

func TestWeightedVarianceConfig(t *testing.T) {
	space := knobs.CaseStudySpace()
	base := buildBaseLearners(t, []workload.Workload{workload.TwitterVariant(1)}, space, 61)
	cfg := DefaultConfig(17)
	cfg.Acq = fastAcq()
	cfg.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
	cfg.TargetMetaFeature = []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	cfg.WeightedVariance = true
	res, err := New(cfg).Run(twitterEvaluator(17), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 9 {
		t.Fatal("weighted-variance session did not complete")
	}
}

// degenerateEvaluator returns pathological measurements to exercise the
// tuner's robustness: constant metrics (degenerate standardizers) or zero
// throughput.
type degenerateEvaluator struct {
	space *knobs.Space
	mode  string
}

func (d *degenerateEvaluator) Space() *knobs.Space          { return d.space }
func (d *degenerateEvaluator) DefaultNative() []float64     { return d.space.Defaults() }
func (d *degenerateEvaluator) Resource() dbsim.ResourceKind { return dbsim.CPUPct }
func (d *degenerateEvaluator) Measure(native []float64) dbsim.Measurement {
	switch d.mode {
	case "constant":
		return dbsim.Measurement{TPS: 100, LatencyP99Ms: 5, CPUUtilPct: 50}
	case "zero-tps":
		return dbsim.Measurement{TPS: 0, LatencyP99Ms: 1e9, CPUUtilPct: 100}
	default:
		panic("unknown mode")
	}
}

// TestRobustToDegenerateMeasurements injects pathological evaluators: the
// session must complete without panicking or erroring even when every
// observation is identical or the database is effectively down.
func TestRobustToDegenerateMeasurements(t *testing.T) {
	for _, mode := range []string{"constant", "zero-tps"} {
		ev := &degenerateEvaluator{space: knobs.CaseStudySpace(), mode: mode}
		cfg := DefaultConfig(23)
		cfg.Acq = fastAcq()
		res, err := New(cfg).Run(ev, 14)
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if len(res.Iterations) != 15 {
			t.Fatalf("mode %s: %d iterations", mode, len(res.Iterations))
		}
		// The default is feasible by construction in both modes.
		if _, ok := res.BestFeasible(); !ok {
			t.Fatalf("mode %s: default not feasible", mode)
		}
	}
}

func TestTargetImprovementGoal(t *testing.T) {
	cfg := DefaultConfig(37)
	cfg.Acq = fastAcq()
	cfg.TargetImprovementPct = 30 // stop once CPU is 30% below default
	res, err := New(cfg).Run(twitterEvaluator(37), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Skip("goal not reached within budget at this seed")
	}
	if res.ImprovementPct() < 30 {
		t.Fatalf("stopped before the goal: %.1f%%", res.ImprovementPct())
	}
	if len(res.Iterations) >= 61 {
		t.Fatal("goal reached but session did not stop early")
	}
}

// TestIncumbentMatchesRescan steps a session and holds the running incumbent
// to History.BestFeasible over the whole history after every step, and the
// one-pass stopping rule to the definition it replaced: the incumbents of
// the last window+1 history prefixes, each found by its own rescan.
func TestIncumbentMatchesRescan(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Acq = fastAcq()
	cfg.ConvergenceWindow = 0
	s, err := NewSession(cfg, twitterEvaluator(5), 40)
	if err != nil {
		t.Fatal(err)
	}
	rescanConverged := func(res *Result, window int) bool {
		if window <= 0 || len(res.Iterations) < window+1 {
			return false
		}
		h := res.History()
		var prev *bo.Observation
		for i := len(h) - window - 1; i < len(h); i++ {
			best, ok := h[:i+1].BestFeasible(res.SLA)
			if !ok {
				return false
			}
			if prev != nil && (relChange(prev.Res, best.Res) > convergenceEps ||
				relChange(prev.Tps, best.Tps) > convergenceEps ||
				relChange(prev.Lat, best.Lat) > convergenceEps) {
				return false
			}
			prev = &best
		}
		return true
	}
	moved, converged := 0, 0
	v := &s.view
	for done := false; !done; {
		before := v.Best.Res
		if done, err = s.Step(); err != nil {
			t.Fatal(err)
		}
		want, ok := v.History.BestFeasible(s.res.SLA)
		if ok != v.HasBest || want.Res != v.Best.Res || &want.Theta[0] != &v.Best.Theta[0] {
			t.Fatalf("iteration %d: incumbent %+v (%v), rescan finds %+v (%v)",
				len(v.History)-1, v.Best, v.HasBest, want, ok)
		}
		if v.Best.Res != before {
			moved++
		}
		for _, window := range []int{1, 3, 10, len(v.History) - 1, len(v.History)} {
			got, want := sessionConverged(s.res, window), rescanConverged(s.res, window)
			if got != want {
				t.Fatalf("iteration %d window %d: converged=%v, rescan says %v", len(v.History)-1, window, got, want)
			}
			if got {
				converged++
			}
		}
	}
	if moved < 2 || converged == 0 {
		t.Fatalf("session too quiet to test the rule: incumbent moved %d times, %d converged verdicts", moved, converged)
	}
}
