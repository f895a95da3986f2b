package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SessionSpec declares one tuning session for a Fleet: its own Config
// (seed, recorder, per-session corpus view), evaluator and iteration
// budget. Specs sharing a meta-corpus should each carry their own Corpus
// view from meta.SharedCorpus.NewSession — views keep their shortlist
// private while the expensive surrogate fits are computed once fleet-wide.
type SessionSpec struct {
	// Name labels the session in results and fleet telemetry. Empty names
	// default to "session-<index>".
	Name string
	// Config is the session's full tuning configuration. Each session must
	// have its own recorder (or none) — recorders are not multiplexed.
	Config Config
	// Evaluator measures configurations for this session's workload. Each
	// session needs its own evaluator instance; evaluators are stepped from
	// worker goroutines (one at a time per session, but the goroutine may
	// change between iterations).
	Evaluator Evaluator
	// Iters is the iteration budget.
	Iters int
}

// FleetConfig configures a Fleet.
type FleetConfig struct {
	// Workers bounds how many sessions step concurrently. 0 or negative
	// selects GOMAXPROCS.
	Workers int
	// Recorder receives fleet-level telemetry: active/completed/failed
	// session counts. Nil records nothing. Per-session telemetry flows
	// through each spec's own recorder instead.
	Recorder obs.Recorder
}

// SessionResult is one session's outcome, in spec order.
type SessionResult struct {
	// Name is the spec's (defaulted) name.
	Name string
	// Result is the completed tuning result; nil when Err is non-nil.
	Result *Result
	// Err is whatever stopped the session early.
	Err error
}

// Fleet multiplexes many tuning sessions over a bounded worker pool —
// the process shape of a cloud tuning service, where one service instance
// drives hundreds of concurrent sessions against different database
// instances (ResTune's deployment target tunes tens of thousands).
//
// Scheduling is step-level: a worker pops a runnable session, advances it
// exactly one Step (one tuning iteration — model update, acquisition,
// workload replay), and requeues it if unfinished. Because workload replay
// dominates iteration wall time in production, step-level multiplexing
// lets a small worker pool overlap many sessions' replay waits.
//
// Determinism: each session owns its RNG stream (derived from its own
// seed), its history and its surrogates; sessions share only immutable
// state (fitted base-learners through the shared corpus cache, whose fits
// are deterministic regardless of which session runs them first). Step
// ownership migrates between workers through the run queue, whose channel
// send/receive pairs publish the session state. A session's trace is
// therefore bit-identical whether it runs solo or among N concurrent
// sessions — the property the fleet determinism test pins at GOMAXPROCS 1
// and 8.
type Fleet struct {
	cfg FleetConfig
}

// NewFleet returns a fleet scheduler.
func NewFleet(cfg FleetConfig) *Fleet {
	return &Fleet{cfg: cfg}
}

// Workers returns the resolved worker-pool size.
func (f *Fleet) Workers() int {
	if f.cfg.Workers > 0 {
		return f.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every spec to completion and returns results in spec order.
// Per-session failures land in their SessionResult.Err; they never abort
// the rest of the fleet.
func (f *Fleet) Run(specs []SessionSpec) []SessionResult {
	rec := obs.OrNop(f.cfg.Recorder)
	results := make([]SessionResult, len(specs))
	sessions := make([]*Session, len(specs))

	gActive := rec.Gauge("core.fleet_active")
	cDone := rec.Counter("core.fleet_completed")
	cFailed := rec.Counter("core.fleet_failed")
	cSteps := rec.Counter("core.fleet_steps")
	span := rec.Span("core.fleet",
		obs.Int("sessions", len(specs)), obs.Int("workers", f.Workers()))
	defer span.End()

	var live int64
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("session-%d", i)
		}
		results[i].Name = name
		s, err := NewSession(spec.Config, spec.Evaluator, spec.Iters)
		if err != nil {
			results[i].Err = err
			cFailed.Add(1)
			continue
		}
		sessions[i] = s
		live++
	}
	gActive.Set(float64(live))

	if live == 0 {
		return results
	}

	// The run queue holds every runnable session index. A session index is
	// always in exactly one place — the queue or a worker's hands — so the
	// channel never exceeds its capacity and a requeue send never blocks.
	// The last session to finish closes the queue, draining the workers.
	queue := make(chan int, live)
	for i, s := range sessions {
		if s != nil {
			queue <- i
		}
	}
	var remaining atomic.Int64
	remaining.Store(live)

	workers := f.Workers()
	if int64(workers) > live {
		workers = int(live)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := sessions[i]
				done, err := s.Step()
				cSteps.Add(1)
				if !done {
					queue <- i
					continue
				}
				if err != nil {
					results[i].Err = err
					cFailed.Add(1)
				} else {
					results[i].Result = s.Result()
					cDone.Add(1)
				}
				left := remaining.Add(-1)
				gActive.Set(float64(left))
				if left == 0 {
					close(queue)
				}
			}
		}()
	}
	wg.Wait()
	return results
}
