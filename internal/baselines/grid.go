package baselines

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// maxGridPoints caps the grid a GridSearch session measures: 8 points on
// each of 5 knobs (32 768) fits, 8 on 6 (262 144) does not. Every point is a
// session iteration, so the cap bounds the session's history and its time.
const maxGridPoints = 1 << 16

// ErrGridTooLarge is returned, wrapped, by GridSearch.Run when the grid over
// the evaluator's knob space exceeds maxGridPoints; no session is started.
var ErrGridTooLarge = errors.New("grid search: grid too large")

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

// size returns the total number of grid points for a dimension count,
// saturating at math.MaxInt.
func (g *GridSearch) size(dim int) int {
	n := 1
	for i := 0; i < dim; i++ {
		if n > math.MaxInt/g.PointsPerDim {
			return math.MaxInt
		}
		n *= g.PointsPerDim
	}
	return n
}

// Run implements core.Tuner, evaluating every grid point. A grid of more
// than maxGridPoints points is refused with ErrGridTooLarge before the
// session starts.
func (g *GridSearch) Run(ev core.Evaluator, _ int) (*core.Result, error) {
	dim := ev.Space().Dim()
	n := g.size(dim)
	if n > maxGridPoints {
		return nil, fmt.Errorf("%w: %d points on each of %d knobs is over the cap of %d grid points",
			ErrGridTooLarge, g.PointsPerDim, dim, maxGridPoints)
	}
	return withPolicy(g.cfg, g.Name(), &grid{points: g.PointsPerDim}).Run(ev, n)
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
