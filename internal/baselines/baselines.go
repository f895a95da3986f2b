// Package baselines implements the comparison methods of the paper's
// evaluation (Section 7): Default, iTuned, OtterTune-w-Con, CDBTune-w-Con
// and grid search. ResTune-w/o-ML and ResTune-w/o-Workload are
// configurations of the core tuner and get constructors here for symmetry.
// Every method implements core.Tuner, so the experiment harness treats them
// uniformly.
package baselines

import (
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/meta"
)

// session carries the shared bookkeeping every baseline loop needs: the
// default probe, SLA capture, and per-iteration recording.
type session struct {
	ev     core.Evaluator
	res    *core.Result
	hist   bo.History
	defHat []float64 // normalized default configuration
}

// The paper's settings every baseline shares with ResTune: the LHS design
// size and the relative measurement deviation accepted when judging
// feasibility.
const (
	initIters    = 10
	slaTolerance = 0.05
)

// newSession measures the default configuration and initializes the result.
func newSession(ev core.Evaluator, method string) *session {
	defaultNative := ev.DefaultNative()
	theta := ev.Space().Normalize(defaultNative)
	m0 := ev.Measure(defaultNative)
	res := &core.Result{Method: method}
	res.DefaultMeasurement = m0
	res.SLA = bo.SLA{LambdaTps: m0.TPS, LambdaLat: m0.LatencyP99Ms, Tolerance: slaTolerance}
	obs := bo.Observation{Theta: theta, Res: m0.Resource(ev.Resource()), Tps: m0.TPS, Lat: m0.LatencyP99Ms}
	res.Iterations = append(res.Iterations, core.Iteration{
		Index: 0, Phase: "default", Observation: obs, Measurement: m0, Feasible: true,
	})
	return &session{ev: ev, res: res, hist: bo.History{obs}, defHat: theta}
}

// evaluate quantizes, measures and records one configuration, returning the
// measurement for method-specific bookkeeping (e.g. RL state).
func (s *session) evaluate(theta []float64, phase string, modelUpdate, recommend time.Duration) dbsim.Measurement {
	theta = s.ev.Space().Quantize(theta)
	tRep := time.Now()
	m := s.ev.Measure(s.ev.Space().Denormalize(theta))
	obs := bo.Observation{Theta: theta, Res: m.Resource(s.ev.Resource()), Tps: m.TPS, Lat: m.LatencyP99Ms}
	it := core.Iteration{
		Index:       len(s.res.Iterations),
		Phase:       phase,
		Observation: obs,
		Measurement: m,
		Feasible:    s.res.SLA.Feasible(obs),
		ModelUpdate: modelUpdate,
		Recommend:   recommend,
		Replay:      time.Since(tRep),
	}
	s.res.Iterations = append(s.res.Iterations, it)
	s.hist = append(s.hist, obs)
	return m
}

// NewResTuneWithoutML returns the ResTune-w/o-ML ablation: the full
// constrained-BO tuner without the data repository.
func NewResTuneWithoutML(seed int64) core.Tuner {
	cfg := core.DefaultConfig(seed)
	cfg.Name = "ResTune-w/o-ML"
	return core.New(cfg)
}

// NewResTuneWithoutWorkload returns the Figure 6(b) ablation: meta-learning
// with dynamic weights but LHS initialization instead of the workload-
// characterization static phase.
func NewResTuneWithoutWorkload(seed int64, base []*meta.BaseLearner, targetMeta []float64) core.Tuner {
	cfg := core.DefaultConfig(seed)
	cfg.Name = "ResTune-w/o-Workload"
	cfg.Corpus = meta.NewCorpus(meta.TasksOf(base...), meta.CorpusOptions{})
	cfg.TargetMetaFeature = targetMeta
	cfg.UseWorkloadChar = false
	return core.New(cfg)
}

// DefaultOnly is the Default baseline: the DBA configuration, re-measured
// each iteration (the flat line in Figures 3-5 and 9).
type DefaultOnly struct{}

// Name implements core.Tuner.
func (DefaultOnly) Name() string { return "Default" }

// Run implements core.Tuner.
func (DefaultOnly) Run(ev core.Evaluator, iters int) (*core.Result, error) {
	s := newSession(ev, "Default")
	for i := 0; i < iters; i++ {
		s.evaluate(s.defHat, "default", 0, 0)
	}
	return s.res, nil
}
