package baselines

import (
	"repro/internal/core"
)

// GridSearch exhaustively evaluates a per-dimension grid — the case study's
// "known ground-truth" (an 8x8x8 grid over the three Twitter knobs,
// Section 7.3). Run ignores its iteration budget: the session's budget is
// the grid size, so every point is evaluated once. Being ground truth, it
// also ignores the Config's stopping rules (ConvergenceWindow,
// TargetImprovementPct) and trust region (Drift).
type GridSearch struct {
	// PointsPerDim is the grid resolution (8 in the paper's case study).
	PointsPerDim int
	cfg          core.Config
}

// NewGridSearch returns a grid search of pointsPerDim points per knob (the
// paper's 8 when pointsPerDim <= 1) in sessions configured by cfg.
func NewGridSearch(cfg core.Config, pointsPerDim int) *GridSearch {
	if pointsPerDim <= 1 {
		pointsPerDim = 8
	}
	cfg.ConvergenceWindow, cfg.TargetImprovementPct, cfg.Drift = 0, 0, nil
	return &GridSearch{PointsPerDim: pointsPerDim, cfg: cfg}
}

// Name implements core.Tuner.
func (g *GridSearch) Name() string { return "GridSearch" }

// Size returns the total number of grid points for a dimension count.
func (g *GridSearch) Size(dim int) int {
	n := 1
	for i := 0; i < dim; i++ {
		n *= g.PointsPerDim
	}
	return n
}

// Run implements core.Tuner, evaluating every grid point.
func (g *GridSearch) Run(ev core.Evaluator, _ int) (*core.Result, error) {
	return withPolicy(g.cfg, g.Name(), &grid{points: g.PointsPerDim}).Run(ev, g.Size(ev.Space().Dim()))
}

// grid walks the grid in odometer order, first knob fastest.
type grid struct {
	points int
	idx    []int
}

func (p *grid) Start(v *core.View) error {
	p.idx = make([]int, v.Dim)
	return nil
}

func (p *grid) Update(*core.View) error { return nil }

func (p *grid) Propose(*core.View) ([]float64, string) {
	theta := make([]float64, len(p.idx))
	for d, i := range p.idx {
		theta[d] = float64(i) / float64(p.points-1)
	}
	for d := range p.idx {
		p.idx[d]++
		if p.idx[d] < p.points {
			break
		}
		p.idx[d] = 0
	}
	return theta, "grid"
}
