package gp

import (
	"fmt"
	"sync"

	"repro/internal/mat"
)

// batchBuf is the pooled workspace of one batched posterior (PredictBatch,
// PredictMeanBatch): the dim x m transposed candidate block (one candidate
// per column, so the distance pass streams contiguous rows), the n x m
// cross-covariance block and the n x m forward-solve block. The Dense headers
// are re-dressed over the backing arrays with Reset, so steady-state use
// allocates nothing.
type batchBuf struct {
	xtdata, kdata, vdata []float64
	xt, kstar, v         mat.Dense
}

// batchPool serves every GP: a workspace's size depends only on the training
// set and batch sizes, not on which GP fills it. Concurrent callers each take
// their own.
var batchPool = sync.Pool{New: func() any { return new(batchBuf) }}

// grow returns s resliced to n, reallocated when its capacity is short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// crossCov takes a workspace from batchPool and fills its block with the
// cross-covariance between the fitted view and the candidates:
// kstar[i][j] = k(tx[i], X[j]). The candidates are transposed once, so the
// distance and Matérn passes of every row vectorize over them; every entry
// matches the point-wise Eval bit for bit. The caller puts the workspace
// back. It panics unless every candidate has the dimension of the training
// inputs.
func (g *GP) crossCov(X [][]float64) *batchBuf {
	for _, x := range X {
		g.checkDim(x)
	}
	dim, _ := g.xt.Dims()
	n, m := len(g.tx), len(X)
	bb := batchPool.Get().(*batchBuf)
	bb.xtdata = grow(bb.xtdata, dim*m)
	bb.xt.Reset(dim, m, bb.xtdata)
	transposeTo(bb.xtdata, X, dim, m)
	bb.kdata = grow(bb.kdata, n*m)
	bb.kstar.Reset(n, m, bb.kdata)
	for i, xi := range g.tx {
		g.kernel.row(bb.kstar.Row(i), xi[:dim], &bb.xt)
	}
	return bb
}

// checkDim panics unless x has the dimension of the fitted training inputs.
func (g *GP) checkDim(x []float64) {
	if dim, _ := g.xt.Dims(); dim != len(x) {
		panic(fmt.Sprintf("gp: %d-dimensional point for a GP on %d-dimensional inputs", len(x), dim))
	}
}

// lanes rounds a size up to a multiple of 8, the width of the vector
// distance kernel: the GP's transposed view is lanes(n) wide, and a
// point-wise row, or a fill row up to its panel edge, is rounded up the same
// way, so none has a scalar tail.
func lanes(n int) int { return (n + 7) &^ 7 }

// transposeTo lays the points (each dim long) out one per column of a dim-row
// matrix with row stride w >= len(X), and fills columns len(X)..w with copies
// of column 0: padding lanes hold a real point, so a kernel row over them
// stays in the vector range wherever its first entry does.
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
