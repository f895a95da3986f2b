package core

import (
	"repro/internal/bo"
	"repro/internal/obs"
)

// Policy is the part of a tuning method a Session swaps: its model and its
// choice of the next configuration. The session keeps everything else (the
// default probe and SLA, quantization, the trust region, measurement, the
// record, the incumbent, drift, the stopping rules, telemetry), so every
// method runs one loop. A Policy value is single-session state, like a
// Corpus; Start resets it, so sessions sharing one value run one at a time.
type Policy interface {
	// Start builds the per-session state after the default probe (Iter 0).
	Start(v *View) error
	// Update refits the model before iteration v.Iter; it is timed as the
	// iteration's ModelUpdate.
	Update(v *View) error
	// Propose returns the normalized θ iteration v.Iter measures and its
	// phase label; it is timed as Recommend. The session quantizes θ into a
	// fresh slice, so θ may alias the policy's own state.
	Propose(v *View) (theta []float64, phase string)
}

// View is a policy's read-only window on its session. It is the session's
// own record, kept current as the session records, so reading it costs
// nothing.
type View struct {
	// Iter is the iteration being chosen, 1-based (0 in Start).
	Iter int
	// Seed and InitIters are the Config's; Dim is the knob space's.
	Seed      int64
	InitIters int
	Dim       int
	// Acq is Config.Acq with the session's recorder and, while the trust
	// region is active, its box as Bounds.
	Acq bo.OptimizerConfig
	// SLA holds the thresholds the default probe fixed at θ = Default.
	SLA     bo.SLA
	Default []float64
	// History holds every observation so far, the default probe first;
	// Iterations holds the same iterations with their measurements.
	History    bo.History
	Iterations []Iteration
	// Best is the incumbent — the feasible observation of lowest Res, the
	// first on ties — when HasBest.
	Best    bo.Observation
	HasBest bool
	// Weights are the GP forgetting weights, parallel to History; nil until
	// the first tier-1 drift event.
	Weights []float64
	// MetaFeature is Config.TargetMetaFeature until a tier-2 drift reset
	// replaces it with the new regime's signature; Resets counts resets.
	MetaFeature []float64
	Resets      int
}

// annotator is implemented by the ResTune policy, whose iterations carry
// more than θ and a phase: annotate copies its ensemble weights and
// shortlist size into the record and, when attrs is non-nil (telemetry on),
// appends its span attributes for the evaluated θ.
type annotator interface {
	annotate(it *Iteration, theta []float64, attrs []obs.Attr) []obs.Attr
}
