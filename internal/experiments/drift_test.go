package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestRampGraduatedResponse is the acceptance test for the graduated drift
// response on the profile that motivated it: the gradual ramp, where the
// PR-8 hard reset *hurt* (throwing away the incumbent on slow continuous
// growth). All three arms are paired — identical seeds, corpus and method
// name, differing only in Config.Drift — at the parameters of the
// EXPERIMENTS.md simulated-day table (`restune-bench -timeline all -iters
// 48`), so the assertion is about the mechanism, not the seed.
//
// The graduated tuner must (a) no longer lose to the stationary baseline,
// and (b) beat the hard-reset configuration it replaces (ResetThreshold ==
// Threshold escalates every event to tier 2, reproducing the pre-graduated
// behaviour) — while still firing drift events rather than going inert.
func TestRampGraduatedResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("three full simulated-day sessions")
	}
	p := Quick()
	p.Iters = 48

	ramp, err := workload.TimelineProfile("ramp")
	if err != nil {
		t.Fatal(err)
	}
	stationary, err := SimulatedDay("ramp", ramp, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	graduated, err := SimulatedDay("ramp", ramp, p, &core.DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hardReset, err := SimulatedDay("ramp", ramp, p, &core.DriftConfig{ResetThreshold: 0.04})
	if err != nil {
		t.Fatal(err)
	}

	t.Logf("ramp violations: graduated=%d stationary=%d hard-reset=%d (graduated events=%d)",
		graduated.Violations, stationary.Violations, hardReset.Violations, graduated.DriftEvents)
	if graduated.DriftEvents < 1 {
		t.Fatal("graduated tuner fired no drift events on the ramp — the detector went inert")
	}
	if graduated.Violations > stationary.Violations {
		t.Errorf("graduated drift response violates the SLA more than the stationary baseline on the ramp: %d > %d",
			graduated.Violations, stationary.Violations)
	}
	if graduated.Violations > hardReset.Violations {
		t.Errorf("graduated drift response is no better than the hard reset it replaces on the ramp: %d > %d",
			graduated.Violations, hardReset.Violations)
	}
}
