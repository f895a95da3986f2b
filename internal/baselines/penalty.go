package baselines

import (
	"math"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/rng"
)

// NewPenaltyBO returns the "simplest way to solve constrained optimization"
// the paper's related-work section describes: attach a penalty value to the
// objective when the constraints are violated, then run plain Bayesian
// optimization on the penalized objective with a single GP and EI. It is
// the ablation counterpart to ResTune's CEI (experiments
// "ablation-acquisition"): the penalty surface has a discontinuity at the
// feasibility boundary that a smooth GP fits poorly, which is why the CEI
// formulation wins.
func NewPenaltyBO(cfg core.Config) core.Tuner {
	return withPolicy(cfg, "Penalty-BO", &penaltyBO{lhsStart: lhsStart{stream: "penalty"}})
}

// penalty is the penalized objective's violation coefficient, in units of
// the standardized resource scale.
const penalty = 10

type penaltyBO struct {
	lhsStart
	g *gp.GP
	y []float64 // the penalized objective, parallel to the history
}

// Update implements core.Policy: fit one GP to the penalized objective.
func (p *penaltyBO) Update(v *core.View) error {
	if v.Iter <= v.InitIters {
		return nil
	}
	// Penalized objective on the standardized resource scale: relative
	// constraint shortfalls scaled by the penalty coefficient.
	sla := v.SLA
	std := bo.NewStandardizer(v.History.Values(bo.Res))
	p.y = make([]float64, len(v.History))
	for i, o := range v.History {
		viol := 0.0
		if o.Tps < sla.LambdaTps {
			viol += (sla.LambdaTps - o.Tps) / sla.LambdaTps
		}
		if o.Lat > sla.LambdaLat {
			viol += (o.Lat - sla.LambdaLat) / sla.LambdaLat
		}
		p.y[i] = std.Apply(o.Res) + penalty*viol
	}
	p.g = gp.New(gp.NewMatern52(1, 0.5), 0.01)
	if err := p.g.Fit(v.History.Thetas(), p.y); err != nil {
		return err
	}
	gp.FitHyperparams(p.g, gp.DefaultFitConfig(), rng.Derive(v.Seed, "penalty-fit"))
	return nil
}

// Propose implements core.Policy: EI on the penalized objective, started
// from its best observation.
func (p *penaltyBO) Propose(v *core.View) ([]float64, string) {
	if v.Iter <= v.InitIters {
		return p.design[v.Iter-1], "lhs"
	}
	best := argmin(p.y)
	acq := func(x []float64) float64 {
		mu, s2 := p.g.Predict(x)
		return bo.EI(mu, math.Sqrt(s2), p.y[best])
	}
	return bo.OptimizeAcqBatch(acq, nil, v.Dim, v.Acq, [][]float64{v.History[best].Theta}, p.r), "penalty-ei"
}
