package baselines

import (
	"repro/internal/core"
)

// GridSearch exhaustively evaluates a per-dimension grid — the case study's
// "known ground-truth" (an 8x8x8 grid over the three Twitter knobs,
// Section 7.3). Run ignores its iteration budget and evaluates the whole
// grid.
type GridSearch struct {
	// PointsPerDim is the grid resolution (8 in the paper's case study).
	PointsPerDim int
}

// NewGridSearch returns a grid search with the paper's resolution.
func NewGridSearch(pointsPerDim int) *GridSearch {
	if pointsPerDim <= 1 {
		pointsPerDim = 8
	}
	return &GridSearch{PointsPerDim: pointsPerDim}
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
	s := newSession(ev, g.Name())
	dim := ev.Space().Dim()
	idx := make([]int, dim)
	for {
		theta := make([]float64, dim)
		for d, i := range idx {
			theta[d] = float64(i) / float64(g.PointsPerDim-1)
		}
		s.evaluate(theta, "grid", 0, 0)
		// Odometer increment.
		d := 0
		for ; d < dim; d++ {
			idx[d]++
			if idx[d] < g.PointsPerDim {
				break
			}
			idx[d] = 0
		}
		if d == dim {
			break
		}
	}
	return s.res, nil
}
