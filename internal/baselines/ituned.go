package baselines

import (
	"math"

	"repro/internal/bo"
	"repro/internal/core"
)

// NewITuned returns the iTuned baseline: a Gaussian-process surrogate with
// the plain Expected Improvement acquisition, initialized by LHS. Per the
// paper's modification, its objective is flipped from maximizing throughput
// to minimizing resource utilization "with the algorithm unmodified" — in
// particular it has no notion of the SLA constraints, so it happily chases
// low-resource configurations that throttle the database (the failure mode
// Section 7.1 reports).
func NewITuned(cfg core.Config) core.Tuner {
	return withPolicy(cfg, "iTuned", &iTuned{lhsStart: lhsStart{stream: "ituned"}})
}

type iTuned struct {
	lhsStart
	tri *bo.TriGP
}

// Update implements core.Policy: a fresh surrogate per iteration.
func (p *iTuned) Update(v *core.View) error {
	if v.Iter <= v.InitIters {
		return nil
	}
	p.tri = bo.NewTriGP(v.Dim, v.Seed+int64(v.Iter))
	return p.tri.FitWithBudget(v.History, 0)
}

// Propose implements core.Policy: unconstrained EI over the best observed
// (not best feasible) resource value, started from that observation.
func (p *iTuned) Propose(v *core.View) ([]float64, string) {
	if v.Iter <= v.InitIters {
		return p.design[v.Iter-1], "lhs"
	}
	best := argmin(v.History.Values(bo.Res))
	bestZ := p.tri.Standardizer(bo.Res).Apply(v.History[best].Res)
	acq := func(x []float64) float64 {
		mu, s2 := p.tri.Predict(bo.Res, x)
		return bo.EI(mu, math.Sqrt(max(s2, 0)), bestZ)
	}
	return bo.OptimizeAcqBatch(acq, nil, v.Dim, v.Acq, [][]float64{v.History[best].Theta}, p.r), "ei"
}

// argmin returns the index of xs's smallest value, the first on ties.
func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
