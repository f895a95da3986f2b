package gp

import (
	"sync"

	"repro/internal/mat"
)

// crossScratch is the pooled workspace of one cross-covariance block: the
// dim x m transposed point block (one point per column, so the distance
// pass streams contiguous rows). Pooled package-wide; concurrent callers
// each take their own.
type crossScratch struct {
	xtdata []float64
	xt     mat.Dense
}

var crossPool = sync.Pool{New: func() any { return &crossScratch{} }}

// getCrossScratch returns a workspace holding X transposed (dim x len(X)).
func getCrossScratch(X [][]float64, dim int) *crossScratch {
	m := len(X)
	cs := crossPool.Get().(*crossScratch)
	if cap(cs.xtdata) < dim*m {
		cs.xtdata = make([]float64, dim*m)
	}
	cs.xt.Reset(dim, m, cs.xtdata[:dim*m])
	transposeTo(cs.xtdata, X, dim, m)
	return cs
}

// lanes rounds a size up to a multiple of 8, the width of the vector
// distance kernel: the GP's transposed view is lanes(n) wide, and a
// point-wise row, or a fill row up to its panel edge, is rounded up the same
// way, so none has a scalar tail.
func lanes(n int) int { return (n + 7) &^ 7 }

// transposeTo lays the points out one per column of a dim-row matrix with
// row stride w >= len(X), and fills columns len(X)..w with copies of column
// 0: padding lanes hold a real point, so a kernel row over them stays in the
// vector range wherever its first entry does. Points longer than dim are
// truncated to their first dim coordinates.
func transposeTo(dst []float64, X [][]float64, dim, w int) {
	for j, xj := range X {
		xj = xj[:dim]
		for d := 0; d < dim; d++ {
			dst[d*w+j] = xj[d]
		}
	}
	for d := 0; d < dim; d++ {
		row := dst[d*w : (d+1)*w]
		for j := len(X); j < w; j++ {
			row[j] = row[0]
		}
	}
}
