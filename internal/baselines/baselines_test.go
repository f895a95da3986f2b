package baselines

import (
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

func TestDefaultOnly(t *testing.T) {
	res, err := DefaultOnly{}.Run(twitterEv(1), 5)
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
	tuner := NewITuned(2)
	tuner.Acq = fastAcq()
	res, err := tuner.Run(twitterEv(2), 25)
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
		cfg := core.DefaultConfig(seed + int64(i))
		cfg.Acq = fastAcq()
		res, err := core.New(cfg).Run(ev, 15)
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
	tuner := NewOtterTuneWCon(3, tasks)
	tuner.Acq = fastAcq()
	res, err := tuner.Run(twitterEv(3), 20)
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
	tuner := NewOtterTuneWCon(4, nil)
	tuner.Acq = fastAcq()
	res, err := tuner.Run(twitterEv(4), 14)
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
	tuner := NewOtterTuneWCon(5, []repo.TaskRecord{far, near})

	// A short target trace on the true Twitter workload.
	ev := twitterEv(5)
	s := newSession(ev, "probe")
	var internals [][]float64
	internals = append(internals, s.res.DefaultMeasurement.Internal)
	for _, u := range [][]float64{{0.2, 0.2, 0.2}, {0.7, 0.1, 0.4}, {0.4, 0.9, 0.6}} {
		m := s.evaluate(u, "probe", 0, 0)
		internals = append(internals, m.Internal)
	}
	mapped := tuner.mapWorkload(s.hist, internals)
	if len(mapped) != len(near.Observations) {
		t.Fatalf("mapped history has %d observations, the near task has %d",
			len(mapped), len(near.Observations))
	}
	if mapped[0].Res != near.Observations[0].Res {
		t.Fatal("mapped to the wrong task")
	}
}

func TestCDBTuneWConRuns(t *testing.T) {
	tuner := NewCDBTuneWCon(6)
	res, err := tuner.Run(twitterEv(6), 30)
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
	g := NewGridSearch(4)
	if g.Size(3) != 64 {
		t.Fatalf("size: %d", g.Size(3))
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
	if NewGridSearch(0).PointsPerDim != 8 {
		t.Fatal("default resolution should be 8")
	}
}

func TestResTuneAblationConstructors(t *testing.T) {
	if NewResTuneWithoutML(1).Name() != "ResTune-w/o-ML" {
		t.Fatal("w/o-ML name")
	}
	if NewResTuneWithoutWorkload(1, nil, nil).Name() != "ResTune-w/o-Workload" {
		t.Fatal("w/o-Workload name")
	}
}
