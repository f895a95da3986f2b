// Package baselines implements the comparison methods of the paper's
// evaluation (Section 7) — Default, iTuned, OtterTune-w-Con, CDBTune-w-Con,
// grid search and the penalty-method ablation — as core.Policy values. Each
// runs on the same core.Session loop as ResTune, which owns the default
// probe, the SLA, measurement, the record, the incumbent, drift handling,
// convergence and telemetry; a policy owns only its model and its next
// configuration. Every constructor takes the session's core.Config (seed,
// InitIters, SLATolerance, Acq, recorder, ...) and returns core.New of it
// under the method's name and policy. That policy is the tuner's one
// instance, reset by each session's start, so a baseline Tuner runs one
// session at a time: call Run sequentially, or build one tuner per
// concurrent session.
package baselines

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/lhs"
	"repro/internal/rng"
)

// withPolicy returns the tuner cfg describes under a method's name and
// policy. Every session of the tuner shares p, so they must not overlap.
func withPolicy(cfg core.Config, name string, p core.Policy) core.Tuner {
	cfg.Name, cfg.Policy = name, p
	return core.New(cfg)
}

// lhsStart is the start iTuned, Penalty-BO and OtterTune-w-Con share: the
// method's acquisition stream and an InitIters-point maximin LHS design from
// the stream's "-lhs" twin, measured before any model is fitted.
type lhsStart struct {
	stream string
	r      *rand.Rand
	design [][]float64
}

// Start implements core.Policy.
func (l *lhsStart) Start(v *core.View) error {
	l.r = rng.Derive(v.Seed, l.stream)
	l.design = lhs.Maximin(v.InitIters, v.Dim, 10, rng.Derive(v.Seed, l.stream+"-lhs"))
	return nil
}

// NewDefault returns the Default baseline: the DBA configuration,
// re-measured each iteration (the flat line in Figures 3-5 and 9).
func NewDefault(cfg core.Config) core.Tuner {
	return withPolicy(cfg, "Default", defaultOnly{})
}

type defaultOnly struct{}

func (defaultOnly) Start(*core.View) error  { return nil }
func (defaultOnly) Update(*core.View) error { return nil }
func (defaultOnly) Propose(v *core.View) ([]float64, string) {
	return v.Default, "default"
}
