package gp

import (
	"sync"

	"repro/internal/mat"
)

// rowScratch holds the radius and exponential arrays of one vector kernel
// row (row); the row itself holds the distances.
type rowScratch struct {
	r, e []float64
}

// crossScratch is the pooled workspace of one cross-covariance block: the
// dim x m transposed point block (one point per column, so the distance
// pass streams contiguous rows) plus one row's scratch. Pooled package-wide;
// concurrent callers each take their own.
type crossScratch struct {
	xtdata []float64
	xt     mat.Dense
	rowScratch
}

var crossPool = sync.Pool{New: func() any { return &crossScratch{} }}

// getCrossScratch returns a workspace holding X transposed (dim x len(X)).
func getCrossScratch(X [][]float64, dim int) *crossScratch {
	m := len(X)
	cs := crossPool.Get().(*crossScratch)
	if cap(cs.xtdata) < dim*m {
		cs.xtdata = make([]float64, dim*m)
	}
	if cap(cs.r) < m {
		cs.r, cs.e = make([]float64, m), make([]float64, m)
	}
	cs.xt.Reset(dim, m, cs.xtdata[:dim*m])
	transposeTo(cs.xtdata, X, dim)
	return cs
}

// transposeTo lays the points out one per column of a dim x len(X) matrix
// with row stride len(X). Points longer than dim are truncated to their
// first dim coordinates.
func transposeTo(dst []float64, X [][]float64, dim int) {
	m := len(X)
	for j, xj := range X {
		xj = xj[:dim]
		for d := 0; d < dim; d++ {
			dst[d*m+j] = xj[d]
		}
	}
}

// row fills row[j] = k(x, column j of xt). It replays exactly Eval's op
// sequence, split into array passes: the scaled squared distance (sub,
// square, scale by the hoisted 1/(l·l), add over ascending dimensions), then
// r = sqrt(5·s), then exp(−r), then the output expression
// v·(1+r+5·s/3)·exp(−r). The first three vectorize over columns, each lane
// doing what the scalar code does (see mat.SqDistColsTo, SqrtScaleTo and
// ExpTo for the three arguments), so every entry matches Eval(x, column) bit
// for bit. The distances s live in row until the last pass overwrites each
// with its entry. rs must hold len(row) of each array.
func (rs *rowScratch) row(k *Matern52, row, x []float64, xt *mat.Dense) {
	s, r, e := row, rs.r[:len(row)], rs.e[:len(row)]
	mat.SqDistColsTo(s, x, xt, 0, k.invSq())
	mat.SqrtScaleTo(r, s, 5)
	for j, rj := range r {
		e[j] = -rj
	}
	mat.ExpTo(e, e)
	v := k.Variance
	for j := range row {
		row[j] = v * (1 + r[j] + 5*s[j]/3) * e[j]
	}
}
