package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gp"
	"repro/internal/meta"
	"repro/internal/obs"
)

// fleetTestCorpusTasks builds n deterministic corpus tasks (shared across
// fleet tests; distinct histories/seeds per task).
func fleetTestCorpusTasks(t *testing.T, n int) []meta.CorpusTask {
	t.Helper()
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
	return tasks
}

// fleetTestSpec builds one session spec over a view of the shared corpus.
func fleetTestSpec(sc *meta.SharedCorpus, seed int64, iters int) SessionSpec {
	cfg := corpusTestConfig()
	cfg.Seed = seed
	cfg.Corpus = sc.NewSession(meta.CorpusOptions{})
	return SessionSpec{
		Name:      fmt.Sprintf("s%d", seed),
		Config:    cfg,
		Evaluator: twitterEvaluator(seed),
		Iters:     iters,
	}
}

// TestFleetMatchesSoloRuns is the core fleet contract: every session's
// result under concurrent step-multiplexed scheduling is bit-identical to
// the same config run solo, and N sessions over one shared corpus pay ~1
// fit per task (hit rate well above the 50% acceptance floor).
func TestFleetMatchesSoloRuns(t *testing.T) {
	const nTasks, nSessions, iters = 6, 4, 6
	tasks := fleetTestCorpusTasks(t, nTasks)

	// Solo baselines: each session with a private fresh shared-corpus view.
	solo := make([]string, nSessions)
	for s := 0; s < nSessions; s++ {
		spec := fleetTestSpec(meta.NewSharedCorpus(tasks, nil), int64(7+s), iters)
		res, err := New(spec.Config).Run(spec.Evaluator, spec.Iters)
		if err != nil {
			t.Fatal(err)
		}
		solo[s] = sessionTrace(res)
	}

	sc := meta.NewSharedCorpus(tasks, nil)
	specs := make([]SessionSpec, nSessions)
	for s := 0; s < nSessions; s++ {
		specs[s] = fleetTestSpec(sc, int64(7+s), iters)
	}
	results := NewFleet(FleetConfig{Workers: nSessions}).Run(specs)

	if len(results) != nSessions {
		t.Fatalf("got %d results, want %d", len(results), nSessions)
	}
	for s, r := range results {
		if r.Err != nil {
			t.Fatalf("session %s failed: %v", r.Name, r.Err)
		}
		if want := fmt.Sprintf("s%d", 7+s); r.Name != want {
			t.Fatalf("result %d name = %q, want %q (spec order)", s, r.Name, want)
		}
		if got := sessionTrace(r.Result); got != solo[s] {
			t.Fatalf("session %s trace differs between solo and fleet runs:\n%s\nvs\n%s",
				r.Name, solo[s], got)
		}
	}

	hits, misses := sc.Stats()
	if misses != nTasks {
		t.Fatalf("shared corpus ran %d fits, want exactly %d", misses, nTasks)
	}
	if hr := sc.HitRate(); hr <= 0.5 {
		t.Fatalf("shared-fit hit rate = %.3f (hits=%d misses=%d), want > 0.5", hr, hits, misses)
	}
}

// TestFleetIsolatesFailures pins that a broken spec fails alone: its
// SessionResult carries the error, every other session completes.
func TestFleetIsolatesFailures(t *testing.T) {
	tasks := fleetTestCorpusTasks(t, 2)
	sc := meta.NewSharedCorpus(tasks, nil)

	good := fleetTestSpec(sc, 3, 3)
	bad := fleetTestSpec(sc, 4, 3)
	// A private corpus whose one task cannot be materialized: the session
	// fails at its first model update. (Private on purpose — the shared
	// corpus memoizes a fit error for every session.)
	bad.Config.Corpus = meta.NewCorpus([]meta.CorpusTask{{
		ID:          "broken",
		MetaFeature: tasks[0].MetaFeature,
		Fit:         func() (*meta.BaseLearner, error) { return nil, errors.New("history unreadable") },
	}}, meta.CorpusOptions{})
	bad.Name = ""

	rec := obs.NewRegistry(nil)
	results := NewFleet(FleetConfig{Workers: 2, Recorder: rec}).Run([]SessionSpec{good, bad})

	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("good session: err=%v result=%v", results[0].Err, results[0].Result)
	}
	if results[1].Err == nil {
		t.Fatal("bad session: expected its corpus fit error")
	}
	if results[1].Name != "session-1" {
		t.Fatalf("unnamed spec got %q, want default session-1", results[1].Name)
	}
	snap := rec.Snapshot()
	if got := snap["core.fleet_completed"]; got != uint64(1) {
		t.Fatalf("fleet_completed = %v, want 1", got)
	}
	if got := snap["core.fleet_failed"]; got != uint64(1) {
		t.Fatalf("fleet_failed = %v, want 1", got)
	}
}

// TestFleetWorkerDefaults pins worker-pool resolution.
func TestFleetWorkerDefaults(t *testing.T) {
	if got := NewFleet(FleetConfig{Workers: 8}).Workers(); got != 8 {
		t.Fatalf("Workers() = %d, want 8", got)
	}
	if got := NewFleet(FleetConfig{}).Workers(); got < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", got)
	}
	if res := NewFleet(FleetConfig{Workers: 4}).Run(nil); len(res) != 0 {
		t.Fatalf("empty fleet returned %d results", len(res))
	}
}

// TestFleetManySessionsFewWorkers runs more sessions than workers so the
// requeue scheduler actually interleaves step execution.
func TestFleetManySessionsFewWorkers(t *testing.T) {
	const nSessions = 6
	tasks := fleetTestCorpusTasks(t, 3)
	sc := meta.NewSharedCorpus(tasks, nil)
	specs := make([]SessionSpec, nSessions)
	for s := range specs {
		specs[s] = fleetTestSpec(sc, int64(20+s), 4)
	}
	results := NewFleet(FleetConfig{Workers: 2}).Run(specs)
	var names []string
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("session %s: %v", r.Name, r.Err)
		}
		if !r.Result.Converged && len(r.Result.Iterations) != 5 {
			t.Fatalf("session %s ran %d iterations, want 5 (default probe + budget 4)",
				r.Name, len(r.Result.Iterations))
		}
		names = append(names, r.Name)
	}
	if got, want := strings.Join(names, ","), "s20,s21,s22,s23,s24,s25"; got != want {
		t.Fatalf("result order %q, want spec order %q", got, want)
	}
}
