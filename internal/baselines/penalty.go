package baselines

import (
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/lhs"
	"repro/internal/rng"
)

// PenaltyBO is the "simplest way to solve constrained optimization" the
// paper's related-work section describes: attach a penalty value to the
// objective when the constraints are violated, then run plain Bayesian
// optimization on the penalized objective with a single GP and EI. It is
// the ablation counterpart to ResTune's CEI (experiments
// "ablation-acquisition"): the penalty surface has a discontinuity at the
// feasibility boundary that a smooth GP fits poorly, which is why the CEI
// formulation wins.
type PenaltyBO struct {
	// Seed drives the session's randomness.
	Seed int64
	// Acq configures acquisition optimization.
	Acq bo.OptimizerConfig
}

// penalty is the penalized objective's violation coefficient, in units of
// the standardized resource scale.
const penalty = 10

// NewPenaltyBO returns the penalty-method tuner.
func NewPenaltyBO(seed int64) *PenaltyBO {
	return &PenaltyBO{Seed: seed, Acq: bo.DefaultOptimizerConfig()}
}

// Name implements core.Tuner.
func (t *PenaltyBO) Name() string { return "Penalty-BO" }

// Run implements core.Tuner.
func (t *PenaltyBO) Run(ev core.Evaluator, iters int) (*core.Result, error) {
	s := newSession(ev, t.Name())
	dim := ev.Space().Dim()
	r := rng.Derive(t.Seed, "penalty")
	design := lhs.Maximin(initIters, dim, 10, rng.Derive(t.Seed, "penalty-lhs"))

	for iter := 1; iter <= iters; iter++ {
		if iter <= initIters {
			s.evaluate(design[iter-1], "lhs", 0, 0)
			continue
		}

		tModel := time.Now()
		// Penalized objective on the standardized resource scale: relative
		// constraint shortfalls scaled by the penalty coefficient.
		std := bo.NewStandardizer(s.hist.Values(bo.Res))
		y := make([]float64, len(s.hist))
		for i, o := range s.hist {
			v := 0.0
			if o.Tps < s.res.SLA.LambdaTps {
				v += (s.res.SLA.LambdaTps - o.Tps) / s.res.SLA.LambdaTps
			}
			if o.Lat > s.res.SLA.LambdaLat {
				v += (o.Lat - s.res.SLA.LambdaLat) / s.res.SLA.LambdaLat
			}
			y[i] = std.Apply(o.Res) + penalty*v
		}
		g := gp.New(gp.NewMatern52(1, 0.5), 0.01)
		if err := g.Fit(s.hist.Thetas(), y); err != nil {
			return nil, err
		}
		gp.FitHyperparams(g, gp.DefaultFitConfig(), rng.Derive(t.Seed, "penalty-fit"))
		modelUpdate := time.Since(tModel)

		tRec := time.Now()
		best := y[0]
		bestIdx := 0
		for i, yi := range y {
			if yi < best {
				best, bestIdx = yi, i
			}
		}
		acq := func(x []float64) float64 {
			mu, v := g.Predict(x)
			return bo.EI(mu, math.Sqrt(v), best)
		}
		theta := bo.OptimizeAcqBatch(acq, nil, dim, t.Acq, [][]float64{s.hist[bestIdx].Theta}, r)
		recommend := time.Since(tRec)

		s.evaluate(theta, "penalty-ei", modelUpdate, recommend)
	}
	return s.res, nil
}
