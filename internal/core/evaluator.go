// Package core assembles the paper's contribution: the resource-oriented
// tuning loop (Section 4's iteration pipeline) combining constrained
// Bayesian optimization (Section 5) with the meta-learning ensemble
// (Section 6) under the adaptive weight schema, plus the Evaluator and Tuner
// abstractions every baseline implements so that all methods face the same
// black box.
package core

import (
	"time"

	"repro/internal/bo"
	"repro/internal/dbsim"
	"repro/internal/knobs"
)

// Evaluator is the database copy + replayer a tuning session measures
// configurations through.
type Evaluator interface {
	// Space is the knob subspace under tuning.
	Space() *knobs.Space
	// DefaultNative is the DBA default configuration in native units.
	DefaultNative() []float64
	// Measure applies a native configuration and replays the workload.
	Measure(native []float64) dbsim.Measurement
	// Resource selects which utilization the session minimizes.
	Resource() dbsim.ResourceKind
}

// SimEvaluator adapts a dbsim.Simulator as an Evaluator.
type SimEvaluator struct {
	Sim      *dbsim.Simulator
	Knobs    *knobs.Space
	Kind     dbsim.ResourceKind
	Defaults []float64
}

// NewSimEvaluator builds an evaluator over the given knob subspace,
// minimizing the given resource.
func NewSimEvaluator(sim *dbsim.Simulator, space *knobs.Space, kind dbsim.ResourceKind) *SimEvaluator {
	return &SimEvaluator{
		Sim:      sim,
		Knobs:    space,
		Kind:     kind,
		Defaults: dbsim.DefaultNative(space, sim.HW),
	}
}

// Space implements Evaluator.
func (e *SimEvaluator) Space() *knobs.Space { return e.Knobs }

// DefaultNative implements Evaluator.
func (e *SimEvaluator) DefaultNative() []float64 { return append([]float64(nil), e.Defaults...) }

// Measure implements Evaluator.
func (e *SimEvaluator) Measure(native []float64) dbsim.Measurement {
	return e.Sim.Eval(e.Knobs, native)
}

// Resource implements Evaluator.
func (e *SimEvaluator) Resource() dbsim.ResourceKind { return e.Kind }

// Iteration records one tuning step: what was tried, what was measured, and
// where the time went (the stages of paper Table 3).
type Iteration struct {
	// Index is the 0-based iteration number (0 is the default-config probe).
	Index int
	// Observation is the (θ, res, tps, lat) four-tuple, θ normalized.
	Observation bo.Observation
	// Measurement is the full replay measurement.
	Measurement dbsim.Measurement
	// Feasible reports SLA satisfaction within tolerance.
	Feasible bool
	// Phase labels how the point was chosen ("default", "static",
	// "dynamic", "lhs", "cbo", "rl", ...).
	Phase string
	// Weights is the ensemble weight vector (target last) when
	// meta-learning is active, nil otherwise. With a corpus it spans the
	// whole corpus (zeros for tasks off the shortlist).
	Weights []float64
	// Shortlist is how many base-learners participated in this iteration's
	// ensemble when a corpus is active (0 otherwise).
	Shortlist int
	// DriftDistance is the smoothed meta-feature distance between the
	// streaming workload signature and the current regime anchor (0 when
	// drift detection is off).
	DriftDistance float64
	// DriftEvent reports whether this iteration's measurement fired the
	// drift detector (hysteresis satisfied): the regime anchor moved.
	DriftEvent bool
	// DriftTier grades the response to a fired event: DriftTranslate (1)
	// for a small excursion — trust region translated, incumbent aged, GP
	// observation weights decayed — or DriftReset (2) for a large jump —
	// incumbent dropped, region re-centered on the DBA default,
	// meta-learning re-triggered. DriftNone (0) when no event fired.
	DriftTier int
	// TrustRadius is the trust-region half-width in effect when this
	// iteration's candidate was chosen (0 while the region is inactive —
	// before warm-up or with drift tuning disabled).
	TrustRadius float64
	// TrustCenter is the trust region's center (the last known-safe
	// normalized configuration) when the candidate was chosen, nil while
	// the region is inactive.
	TrustCenter []float64
	// LoadMult is the offered-load multiplier the evaluator reported for
	// this iteration's measurement (1 for stationary evaluators).
	LoadMult float64
	// ModelUpdate, Recommend, Replay are the measured stage durations of
	// this iteration.
	ModelUpdate time.Duration
	Recommend   time.Duration
	Replay      time.Duration
}

// Result is a finished tuning session.
type Result struct {
	// Method names the tuner that produced the result.
	Method string
	// SLA holds the constraint thresholds taken from the default config.
	SLA bo.SLA
	// DefaultMeasurement is the iteration-0 measurement.
	DefaultMeasurement dbsim.Measurement
	// Iterations is the full trace, element 0 being the default probe.
	Iterations []Iteration
	// Converged reports whether the convergence rule stopped the session.
	Converged bool
}

// History returns the observation track.
func (r *Result) History() bo.History {
	h := make(bo.History, len(r.Iterations))
	for i, it := range r.Iterations {
		h[i] = it.Observation
	}
	return h
}

// BestFeasible returns the best feasible observation and whether one exists.
func (r *Result) BestFeasible() (bo.Observation, bool) {
	return r.History().BestFeasible(r.SLA)
}

// BestFeasibleSeries returns, per iteration, the best feasible resource
// value so far (default resource where none exists yet) — the y-series of
// Figures 3-5 and 9.
func (r *Result) BestFeasibleSeries() []float64 {
	def := r.Iterations[0].Observation.Res
	return r.History().BestFeasibleByIter(r.SLA, def)
}

// IterationsToBest returns the iteration index at which the best feasible
// resource value was first reached (Table 4's "Iteration" row).
func (r *Result) IterationsToBest() int {
	best, ok := r.BestFeasible()
	if !ok {
		return len(r.Iterations)
	}
	for i, it := range r.Iterations {
		if it.Feasible && it.Observation.Res <= best.Res {
			return i
		}
	}
	return len(r.Iterations)
}

// ImprovementPct returns the relative reduction of the best feasible
// resource value versus the default, in percent.
func (r *Result) ImprovementPct() float64 {
	best, ok := r.BestFeasible()
	if !ok {
		return 0
	}
	def := r.Iterations[0].Observation.Res
	if def <= 0 {
		return 0
	}
	return (def - best.Res) / def * 100
}

// Tuner is a knob-tuning method. All of the paper's baselines and ResTune
// itself implement it.
type Tuner interface {
	// Name returns the method's display name.
	Name() string
	// Run executes a tuning session of at most iters configuration
	// evaluations (excluding the default probe).
	Run(ev Evaluator, iters int) (*Result, error)
}
