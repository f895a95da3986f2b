package baselines

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/repo"
	"repro/internal/workload"
)

func twitterEv(seed int64) core.Evaluator {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return core.NewSimEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct)
}

func fastAcq() bo.OptimizerConfig {
	return bo.OptimizerConfig{RandomCandidates: 96, LocalStarts: 2, LocalSteps: 10, StepScale: 0.1}
}

// testConfig is the paper's session configuration with the test
// acquisition settings.
func testConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Acq = fastAcq()
	return cfg
}

// newMethod builds a comparison method by its display name, with the test
// acquisition settings; tasks feed OtterTune-w-Con's workload mapping.
func newMethod(name string, seed int64, tasks []repo.TaskRecord) core.Tuner {
	cfg := testConfig(seed)
	switch name {
	case "Default":
		return NewDefault(cfg)
	case "iTuned":
		return NewITuned(cfg)
	case "Penalty-BO":
		return NewPenaltyBO(cfg)
	case "OtterTune-w-Con":
		return NewOtterTuneWCon(cfg, tasks)
	case "CDBTune-w-Con":
		return NewCDBTuneWCon(cfg)
	case "GridSearch":
		return NewGridSearch(cfg, 4)
	}
	panic("unknown method " + name)
}

func TestDefaultOnly(t *testing.T) {
	res, err := newMethod("Default", 1, nil).Run(twitterEv(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Default" || len(res.Iterations) != 6 {
		t.Fatalf("%s %d", res.Method, len(res.Iterations))
	}
	// All evaluations are at the default point: improvement stays ~0.
	if res.ImprovementPct() > 5 {
		t.Fatalf("default baseline should not improve: %v%%", res.ImprovementPct())
	}
}

func TestITunedRunsAndChasesLowResource(t *testing.T) {
	res, err := newMethod("iTuned", 2, nil).Run(twitterEv(2), 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "iTuned" {
		t.Fatal(res.Method)
	}
	// iTuned minimizes resource without constraints: its minimum observed
	// (not necessarily feasible) resource should undercut the default.
	minRes := res.Iterations[0].Observation.Res
	for _, it := range res.Iterations {
		if it.Observation.Res < minRes {
			minRes = it.Observation.Res
		}
	}
	if minRes > res.Iterations[0].Observation.Res*0.7 {
		t.Fatalf("iTuned did not drive resource down: %v vs default %v",
			minRes, res.Iterations[0].Observation.Res)
	}
	// Phase labels present.
	if res.Iterations[1].Phase != "lhs" || res.Iterations[11].Phase != "ei" {
		t.Fatalf("phases: %s %s", res.Iterations[1].Phase, res.Iterations[11].Phase)
	}
}

func buildTaskRecords(t *testing.T, ws []workload.Workload, hw string, seed int64) []repo.TaskRecord {
	t.Helper()
	space := knobs.CaseStudySpace()
	var tasks []repo.TaskRecord
	for i, w := range ws {
		sim := dbsim.New(dbsim.Instance(hw), w.Profile, seed+int64(i), dbsim.WithHalfRAMBufferPool())
		ev := core.NewSimEvaluator(sim, space, dbsim.CPUPct)
		res, err := core.New(testConfig(seed+int64(i))).Run(ev, 15)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, repo.FromResult(w.Name, w.Name, hw, []float64{0.2, 0.2, 0.2, 0.2, 0.2}, space, res))
	}
	return tasks
}

func TestOtterTuneWConMapsAndTunes(t *testing.T) {
	tasks := buildTaskRecords(t, []workload.Workload{
		workload.TwitterVariant(1), workload.TPCC(200),
	}, "A", 31)
	res, err := newMethod("OtterTune-w-Con", 3, tasks).Run(twitterEv(3), 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "OtterTune-w-Con" {
		t.Fatal(res.Method)
	}
	if _, ok := res.BestFeasible(); !ok {
		t.Fatal("no feasible point found (default itself is feasible)")
	}
	if res.Iterations[11].Phase != "mapped-cei" {
		t.Fatalf("phase: %s", res.Iterations[11].Phase)
	}
	if res.ImprovementPct() <= 0 {
		t.Fatalf("OtterTune-w-Con should still improve on default: %v%%", res.ImprovementPct())
	}
}

func TestOtterTuneWConEmptyRepository(t *testing.T) {
	res, err := newMethod("OtterTune-w-Con", 4, nil).Run(twitterEv(4), 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 15 {
		t.Fatal("empty repository must degrade gracefully to plain CBO")
	}
}

func TestMapWorkloadPrefersSimilarTask(t *testing.T) {
	// Build one near-identical task (Twitter variant on same hardware) and
	// one very different task; the mapper should choose the former.
	near := buildTaskRecords(t, []workload.Workload{workload.TwitterVariant(1)}, "A", 41)[0]
	far := buildTaskRecords(t, []workload.Workload{workload.TPCC(200)}, "A", 42)[0]
	policy := &otterTune{tasks: []repo.TaskRecord{far, near}}

	// A short target trace on the true Twitter workload: the default probe
	// and three fixed configurations.
	ev := twitterEv(5)
	space := ev.Space()
	var target []core.Iteration
	probe := func(theta, native []float64) {
		target = append(target, core.Iteration{
			Observation: bo.Observation{Theta: theta},
			Measurement: ev.Measure(native),
		})
	}
	probe(space.Normalize(ev.DefaultNative()), ev.DefaultNative())
	for _, u := range [][]float64{{0.2, 0.2, 0.2}, {0.7, 0.1, 0.4}, {0.4, 0.9, 0.6}} {
		theta := space.Quantize(u)
		probe(theta, space.Denormalize(theta))
	}
	mapped := policy.mapWorkload(target)
	if len(mapped) != len(near.Observations) {
		t.Fatalf("mapped history has %d observations, the near task has %d",
			len(mapped), len(near.Observations))
	}
	if mapped[0].Res != near.Observations[0].Res {
		t.Fatal("mapped to the wrong task")
	}
}

func TestCDBTuneWConRuns(t *testing.T) {
	res, err := NewCDBTuneWCon(core.DefaultConfig(6)).Run(twitterEv(6), 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "CDBTune-w-Con" {
		t.Fatal(res.Method)
	}
	if len(res.Iterations) != 31 {
		t.Fatalf("iterations %d", len(res.Iterations))
	}
	// Actions recorded as valid normalized configurations.
	for _, it := range res.Iterations[1:] {
		for _, v := range it.Observation.Theta {
			if v < 0 || v > 1 {
				t.Fatalf("action out of bounds: %v", v)
			}
		}
		if it.Phase != "rl" {
			t.Fatalf("phase %s", it.Phase)
		}
	}
}

func TestGridSearch(t *testing.T) {
	g := NewGridSearch(core.DefaultConfig(7), 4)
	if g.size(3) != 64 {
		t.Fatalf("size: %d", g.size(3))
	}
	res, err := g.Run(twitterEv(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 65 { // default + full grid
		t.Fatalf("iterations %d", len(res.Iterations))
	}
	// Grid search over the case-study space should find a strong optimum.
	if res.ImprovementPct() < 40 {
		t.Fatalf("grid improvement %.1f%% too small", res.ImprovementPct())
	}
	if NewGridSearch(core.DefaultConfig(7), 0).PointsPerDim != 8 {
		t.Fatal("default resolution should be 8")
	}
}

// A grid over a wide knob space is refused before its session starts: 8
// points on each of the 14 CPU knobs would be 8^14 iterations, and 8^dim
// overflows int from 21 knobs on.
func TestGridSearchRejectsWideSpace(t *testing.T) {
	g := NewGridSearch(core.DefaultConfig(7), 8)
	for dim, want := range map[int]int{0: 1, 5: 32768, 20: 1 << 60, 21: math.MaxInt, 1000: math.MaxInt} {
		if got := g.size(dim); got != want {
			t.Errorf("size(%d) = %d, want %d", dim, got, want)
		}
	}
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, 7, dbsim.WithHalfRAMBufferPool())
	ev := core.NewSimEvaluator(sim, knobs.CPUSpace(), dbsim.CPUPct)
	res, err := g.Run(ev, 50)
	if !errors.Is(err, ErrGridTooLarge) || res != nil {
		t.Fatalf("14-knob grid: result %v, error %v; want ErrGridTooLarge", res, err)
	}
	if !strings.Contains(err.Error(), "14 knobs") {
		t.Fatalf("error %q does not name the knob count", err)
	}
}

// The grid is ground truth: a Config's stopping rules and trust region must
// not cut it short or move its points.
func TestGridSearchIgnoresStoppingRulesAndTrustRegion(t *testing.T) {
	plain, err := NewGridSearch(core.DefaultConfig(7), 4).Run(twitterEv(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]func(*core.Config){
		"ConvergenceWindow":    func(c *core.Config) { c.ConvergenceWindow = 10 },
		"TargetImprovementPct": func(c *core.Config) { c.TargetImprovementPct = 1 },
		"Drift":                func(c *core.Config) { c.Drift = &core.DriftConfig{} },
	} {
		cfg := core.DefaultConfig(7)
		set(&cfg)
		g := NewGridSearch(cfg, 4)
		res, err := g.Run(twitterEv(7), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iterations) != g.size(3)+1 || res.Converged {
			t.Fatalf("%s: iterations %d, converged %v; want the full grid of %d",
				name, len(res.Iterations), res.Converged, g.size(3))
		}
		for i, it := range res.Iterations {
			want := plain.Iterations[i].Observation
			for d, v := range it.Observation.Theta {
				if v != want.Theta[d] {
					t.Fatalf("%s: iteration %d measured θ %v, the plain grid %v", name, i, it.Observation.Theta, want.Theta)
				}
			}
			if it.Observation.Res != want.Res {
				t.Fatalf("%s: iteration %d: res %v, plain %v", name, i, it.Observation.Res, want.Res)
			}
		}
	}
}
