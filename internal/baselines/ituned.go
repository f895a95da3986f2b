package baselines

import (
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/lhs"
	"repro/internal/rng"
)

// ITuned is the iTuned baseline: a Gaussian-process surrogate with the
// plain Expected Improvement acquisition, initialized by LHS. Per the
// paper's modification, its objective is flipped from maximizing throughput
// to minimizing resource utilization "with the algorithm unmodified" — in
// particular it has no notion of the SLA constraints, so it happily chases
// low-resource configurations that throttle the database (the failure mode
// Section 7.1 reports).
type ITuned struct {
	// Seed drives the session's randomness.
	Seed int64
	// Acq configures acquisition optimization.
	Acq bo.OptimizerConfig
}

// NewITuned returns the baseline with paper settings.
func NewITuned(seed int64) *ITuned {
	return &ITuned{Seed: seed, Acq: bo.DefaultOptimizerConfig()}
}

// Name implements core.Tuner.
func (t *ITuned) Name() string { return "iTuned" }

// Run implements core.Tuner.
func (t *ITuned) Run(ev core.Evaluator, iters int) (*core.Result, error) {
	s := newSession(ev, t.Name())
	dim := ev.Space().Dim()
	r := rng.Derive(t.Seed, "ituned")
	design := lhs.Maximin(initIters, dim, 10, rng.Derive(t.Seed, "ituned-lhs"))

	for iter := 1; iter <= iters; iter++ {
		if iter <= initIters {
			s.evaluate(design[iter-1], "lhs", 0, 0)
			continue
		}
		tModel := time.Now()
		tri := bo.NewTriGP(dim, t.Seed+int64(iter))
		if err := tri.FitWithBudget(s.hist, 0); err != nil {
			return nil, err
		}
		modelUpdate := time.Since(tModel)

		tRec := time.Now()
		// Unconstrained EI over the best observed (not best feasible)
		// resource value.
		best := s.hist[0].Res
		for _, o := range s.hist {
			if o.Res < best {
				best = o.Res
			}
		}
		bestZ := tri.Standardizer(bo.Res).Apply(best)
		acq := func(x []float64) float64 {
			mu, v := tri.Predict(bo.Res, x)
			return bo.EI(mu, sqrt(v), bestZ)
		}
		theta := bo.OptimizeAcqBatch(acq, nil, dim, t.Acq, [][]float64{s.hist[argminRes(s.hist)].Theta}, r)
		recommend := time.Since(tRec)

		s.evaluate(theta, "ei", modelUpdate, recommend)
	}
	return s.res, nil
}

func argminRes(h bo.History) int {
	best := 0
	for i, o := range h {
		if o.Res < h[best].Res {
			best = i
		}
	}
	return best
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}
