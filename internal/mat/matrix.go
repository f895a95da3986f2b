// Package mat implements the small dense linear-algebra kernel that the
// Gaussian-process layer is built on: column-major-free dense matrices,
// Cholesky factorization of symmetric positive-definite matrices, and
// triangular solves. It is deliberately minimal — exactly what GP regression
// at n <= a few hundred needs — and uses only the standard library.
package mat

import (
	"fmt"
	"math"
	"sync"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) without copying.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Reset reshapes m in place to r x c over data (row-major, length r*c)
// without allocating, so pooled workspaces can re-dress their backing
// arrays as matrices of varying shape.
func (m *Dense) Reset(r, c int, data []float64) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	m.rows, m.cols, m.data = r, c, data
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Mul returns a*b.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := 0; j < b.cols; j++ {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// MulVec returns a*x for a vector x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: mulvec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTVecTo computes dst = aᵀ x without allocating: dst[j] = Σ_i a[i][j]·x[i],
// accumulated over rows in ascending order. For each column j this performs
// exactly the multiply-add sequence Dot(col_j, x) would, so batching a block
// of column vectors through one call is bit-identical to per-vector Dot.
func MulTVecTo(dst []float64, a *Dense, x []float64) {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: multvec dimension mismatch %dx%d * %d", a.rows, a.cols, len(x)))
	}
	if a.cols != len(dst) {
		panic(fmt.Sprintf("mat: multvec output length %d != %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	w8 := 0
	if simdOn {
		w8 = a.cols &^ 7
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		row := a.Row(i)
		if w8 > 0 {
			axpyRow(&dst[0], &row[0], xi, w8)
		}
		for j := w8; j < len(row); j++ {
			dst[j] += xi * row[j]
		}
	}
}

// ColDotsTo fills dst[j] with the squared Euclidean norm of column j of a,
// accumulated over rows in ascending order — per column, the exact op
// sequence of Dot(col_j, col_j).
func ColDotsTo(dst []float64, a *Dense) {
	if a.cols != len(dst) {
		panic(fmt.Sprintf("mat: coldots output length %d != %d", len(dst), a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	w8 := 0
	if simdOn {
		w8 = a.cols &^ 7
	}
	for i := 0; i < a.rows; i++ {
		row := a.Row(i)
		if w8 > 0 {
			sqAccumRow(&dst[0], &row[0], w8)
		}
		for j := w8; j < len(row); j++ {
			dst[j] += row[j] * row[j]
		}
	}
}

// SqDistColsTo fills s[j] with the scaled squared distance between the point
// x and column lo+j of xt — a len(x)-row matrix holding one candidate per
// column, of which s covers the len(s) columns from lo:
// s[j] = Σ_d ((x[d]−xt[d][lo+j])²)·inv, accumulating over d in
// ascending order with per-element op order subtract, square, scale, add.
// This is the isotropic-kernel distance loop vectorized over candidates;
// per column it carries the same bits as the point-wise scalar loop (the
// candidate-minus-point sign flip vanishes under squaring).
func SqDistColsTo(s []float64, x []float64, xt *Dense, lo int, inv float64) {
	if xt.rows != len(x) || lo < 0 || lo+len(s) > xt.cols {
		panic(fmt.Sprintf("mat: sqdist dimension mismatch %dx%d vs %d, columns %d+%d",
			xt.rows, xt.cols, len(x), lo, len(s)))
	}
	w := len(s)
	w8 := 0
	if simdOn && len(x) > 0 {
		w8 = w &^ 7
	}
	if w8 > 0 {
		sqDistRow(&s[0], &x[0], &xt.data[lo], xt.rows, xt.cols, w8, inv)
	}
	if w8 == w {
		return
	}
	for j := w8; j < w; j++ {
		s[j] = 0
	}
	for d, xd := range x {
		row := xt.Row(d)[lo : lo+w]
		for j := w8; j < w; j++ {
			diff := xd - row[j]
			s[j] += diff * diff * inv
		}
	}
}

// A maternKernel is a vector Matérn pass: it replaces row[j] = s by
// matern(s, v) over w entries, w a positive multiple of 4, stops in front of
// the first block of four holding a distance outside the range its
// straight-line path covers, and returns how many it replaced.
type maternKernel func(row *float64, v float64, w int) int

// MaternTo replaces every scaled squared distance s in row by the
// Matérn-5/2 covariance variance·(1 + r + 5s/3)·exp(−r), r = √(5s), in place,
// every entry carrying the bits of the scalar expression matern below. Where
// a vector kernel is in use (see maternRow) it handles whole blocks of four
// whose exponents −r lie in [−708, 0], where math.Exp runs straight through;
// a block holding any other distance (NaN, +Inf, or r past 708, whose
// exponential would be subnormal), and the tail past the last whole block,
// go through the scalar expression.
func MaternTo(row []float64, variance float64) {
	j := 0
	if simdOn && maternRow != nil {
		for w4 := len(row) &^ 3; j < w4; {
			j += maternRow(&row[j], variance, w4-j)
			if j < w4 {
				for e := j + 4; j < e; j++ {
					row[j] = matern(row[j], variance)
				}
			}
		}
	}
	for ; j < len(row); j++ {
		row[j] = matern(row[j], variance)
	}
}

// matern is one entry of MaternTo: the op order of the isotropic kernel's
// point-wise evaluation (gp's Matern52.Eval), which the vector lanes repeat.
func matern(s, v float64) float64 {
	r := math.Sqrt(5 * s)
	return v * (1 + r + 5*s/3) * math.Exp(-r)
}

// pairsCrossover is the length from which counting every pair with the
// vector kernel costs about what an O(n log n) merge-sort count does. One
// meta.RankEvaluator.Loss on continuous values, counted against its keyed
// merge, on an AMD EPYC core (AVX2, Go 1.24): 45 vs 265 ns at n = 30, 221
// vs 1046 ns at 80, 1.19 vs 3.0 µs at 192, 10.9 vs 12.3 µs at 600, 14.9 vs
// 14.4 µs at 700 and 19.7 vs 17.5 µs at 800.
const pairsCrossover = 700

// CountPairsPays reports whether CountPairs over n values beats a merge
// sort: the vector kernel runs on this CPU and n is below the crossover.
func CountPairsPays(n int) bool { return simdOn && avx2 && n < pairsCrossover }

// CountPairs counts, over the pairs i < j of a, a[i] > a[j] into gt and
// a[i] == a[j] into eq, with float comparison: −0 equals +0, and NaN is
// neither greater than nor equal to anything, itself included. The vector
// kernel counts a slice whose length is a multiple of 4, its width; pad a
// with NaN, which adds to neither count, to have it taken. Other lengths,
// and CPUs without AVX2, run the scalar double loop.
func CountPairs(a []float64) (gt, eq int) {
	if simdOn && avx2 && len(a) > 0 && len(a)%4 == 0 {
		return countPairsRow(&a[0], len(a))
	}
	for i, x := range a {
		for _, y := range a[i+1:] {
			if x > y {
				gt++
			} else if x == y {
				eq++
			}
		}
	}
	return gt, eq
}

// Transpose returns the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L Lᵀ.
// L is stored packed row-major (row i holds its i+1 entries at offset
// i(i+1)/2), so appending one row/column to A extends the factor with an
// amortized slice append instead of a full matrix reallocation — the basis
// of the O(n²) incremental update used by the GP layer.
type Cholesky struct {
	n int
	d []float64 // packed lower-triangular rows
}

// Row returns row i of L, its entries L[i][0..i], sharing the factor's
// storage: callers read it and must not write it.
func (c *Cholesky) Row(i int) []float64 {
	o := i * (i + 1) / 2
	return c.d[o : o+i+1]
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It returns an error if a is not (numerically) positive definite.
func NewCholesky(a *Dense) (*Cholesky, error) {
	c := &Cholesky{}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// factorPanel is the number of rows Grow computes side by side: one whole
// 16-lane chunk of the vector kernel, and a panel (n x factorPanel) small
// enough to stay in the first-level cache.
const factorPanel = 16

// panelPool holds the panel scratch of Grow and InverseDiagTo, so concurrent
// factorizations (one per hyperparameter candidate) each take their own and
// allocate nothing in steady state.
var panelPool = sync.Pool{New: func() any { return new([]float64) }}

// Factor (re)factors c for the SPD matrix a, reusing the packed storage when
// it has capacity — repeated refactors at the same size allocate nothing.
// Only a's upper triangle (row <= column) is read. On error the factor is
// left empty. It is Grow from an empty factor over all of a.
func (c *Cholesky) Factor(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("mat: cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	c.Reset()
	if err := c.Grow(a, a.rows); err != nil {
		c.Reset()
		return err
	}
	return nil
}

// Grow extends the factor of a's leading N()×N() block to its leading
// (N()+w)×(N()+w) block. It reads only columns [N(), N()+w) of a's upper
// triangle (rows 0 to N()+w), so a caller may write a a panel at a time just
// before growing over it, and stop between panels; a may have more columns
// than rows (rows padded for a vector kernel), which are never read. If the
// grown block is not positive definite, Grow returns the error and keeps the
// factor of the leading N()×N() block.
//
// Row i of L is the forward solve of column i of a, down to the diagonal,
// through the rows above it (the arithmetic Append documents), so
// factorPanel rows at a time are laid out as right-hand-side columns and
// solved together: every entry is
// (a[j][i] − Σ_{k<j, ascending} L[i][k]·L[j][k]) / L[j][j] and every pivot
// a[i][i] − Σ_{k<i, ascending} L[i][k]², exactly the operations, in exactly
// the order, of the one-entry-at-a-time left-looking loop — the lanes of a
// panel are different rows i and never interact. The factor, the failing
// pivot and its d are therefore the same bits at any panel width and
// whatever widths the factor was grown by, with the vector kernel or
// without.
func (c *Cholesky) Grow(a *Dense, w int) error {
	i0, n := c.n, c.n+w
	if a.rows > a.cols || w < 0 || n > a.rows {
		return fmt.Errorf("mat: cannot grow a factor of %d rows by %d over a %dx%d matrix", i0, w, a.rows, a.cols)
	}
	c.Reserve(a.rows)
	c.d = c.d[:n*(n+1)/2]
	pp := panelPool.Get().(*[]float64)
	defer panelPool.Put(pp)
	// Whole panels of a's rows, so a matrix growing by a row at a time (a
	// tuning history) finds room far more often than not.
	if rows := (a.rows + factorPanel - 1) &^ (factorPanel - 1); cap(*pp) < rows*factorPanel {
		*pp = make([]float64, rows*factorPanel)
	}
	for p0 := i0; p0 < n; p0 += factorPanel {
		if err := c.factorRows(a, (*pp)[:cap(*pp)], p0, min(factorPanel, n-p0)); err != nil {
			c.d = c.d[:i0*(i0+1)/2]
			return err
		}
	}
	c.n = n
	return nil
}

// factorRows computes rows i0..i0+w of the factor, rows 0..i0 being done.
// Row t of the panel b (stride factorPanel) starts as a[t][i0..i0+w) and
// ends as column t of those rows: b[t][p] = L[i0+p][t].
//
// With the vector kernel a row is worked on in whole groups of eight lanes,
// so up to seven lanes left of the diagonal and the lanes past w ride along.
// They start at zero, stay finite, and no live lane ever reads them: lane p
// only reads lane p of the rows above.
func (c *Cholesky) factorRows(a *Dense, b []float64, i0, w int) error {
	const s = factorPanel
	g := 0 // a group of lanes starts at p &^ g
	if simdOn {
		g = 7
	}
	hi := (w + g) &^ g
	for t := 0; t < i0+w; t++ {
		lo := max(t-i0, 0)
		bt := b[t*s : t*s+hi]
		clear(bt[lo&^g : lo])
		copy(bt[lo:w], a.Row(t)[i0+lo:i0+w])
		clear(bt[w:])
	}
	// scatter copies the finished entries b[t][from..w) into column t of the
	// packed rows below.
	scatter := func(t, from int) {
		i := i0 + from
		o := i*(i+1)/2 + t
		for _, v := range b[t*s+from : t*s+w] {
			c.d[o] = v
			i++
			o += i
		}
	}
	for t := 0; t < i0; t++ {
		fwdSubCols(b, s, c.Row(t), t, 0, hi)
		scatter(t, 0)
	}
	for q := 0; q < w; q++ {
		t := i0 + q
		rowt := c.Row(t)
		d := b[t*s+q]
		for _, v := range rowt[:t] {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", t, d)
		}
		rowt[t] = math.Sqrt(d)
		if lo := (q + 1) &^ g; lo < hi {
			fwdSubCols(b, s, rowt, t, lo, hi)
			scatter(t, q+1)
		}
	}
	return nil
}

// fwdSubCols performs row t of forward substitution over columns [lo, hi) of
// the row-major block data, whose rows above t are solved already:
//
//	data[t][j] = (data[t][j] − Σ_{k<t, ascending} lrow[k]·data[k][j]) / lrow[t]
func fwdSubCols(data []float64, stride int, lrow []float64, t, lo, hi int) {
	solveLanes(data[t*stride+lo:t*stride+hi], data[lo:], stride, lrow[:t+1])
}

// solveLanes performs one row of a triangular solve over the lanes of di,
// given the t = len(lrow)−1 solved rows it depends on at rows[k·stride:]:
//
//	di[j] = (di[j] − Σ_{k<t, ascending} lrow[k]·rows[k·stride+j]) / lrow[t]
//
// Whole groups of eight lanes go through the vector kernel when it is on,
// the rest through the scalar loop; per lane both are the op sequence of
// SolveLowerVecTo's rows and of solveUpperInPlace's. rows must not be empty.
func solveLanes(di, rows []float64, stride int, lrow []float64) {
	t := len(lrow) - 1
	w8 := 0
	if simdOn {
		w8 = len(di) &^ 7
	}
	if w8 > 0 {
		fwdSubRow(&di[0], &lrow[0], &rows[0], t, stride, w8, lrow[t])
	}
	if w8 == len(di) {
		return
	}
	dt := di[w8:]
	for k := 0; k < t; k++ {
		lik := lrow[k]
		dk := rows[k*stride+w8 : k*stride+len(di)]
		for j := range dt {
			dt[j] -= lik * dk[j]
		}
	}
	lii := lrow[t]
	for j := range dt {
		dt[j] /= lii
	}
}

// Append extends the factorization of the n×n matrix A to the bordered
// (n+1)×(n+1) matrix [[A, a], [aᵀ, α]] in O(n²): row holds the n
// cross-entries a followed by the new diagonal α (noise/jitter included).
// The new factor row is the forward solve L y = a with diagonal
// √(α − yᵀy) — element for element the same arithmetic, in the same order,
// as a full refactor would perform, so an appended factor is bit-identical
// to a from-scratch one. If the bordered matrix is not numerically positive
// definite, Append returns an error and leaves the factor unchanged.
func (c *Cholesky) Append(row []float64) error {
	if len(row) != c.n+1 {
		return fmt.Errorf("mat: append row length %d != %d", len(row), c.n+1)
	}
	n := c.n
	o := len(c.d)
	c.d = append(c.d, row...)
	y := c.d[o : o+n+1]
	c.SolveLowerVecTo(y[:n], y[:n])
	d := y[n]
	for _, v := range y[:n] {
		d -= v * v
	}
	if d <= 0 || math.IsNaN(d) {
		c.d = c.d[:o]
		return fmt.Errorf("mat: appended matrix not positive definite (d=%g)", d)
	}
	y[n] = math.Sqrt(d)
	c.n = n + 1
	return nil
}

// N returns the factored dimension.
func (c *Cholesky) N() int { return c.n }

// Reset empties the factorization while keeping the packed storage, so a
// caller can regrow a factor with Append (or Factor at any size up to the
// retained capacity) without reallocating.
func (c *Cholesky) Reset() {
	c.n = 0
	c.d = c.d[:0]
}

// Reserve grows the packed storage to hold an n×n factor, preserving the
// current factorization. After Reserve(n), Append calls up to dimension n
// (and Factor calls up to size n) allocate nothing — the companion of Reset
// for allocation-free incremental growth loops.
func (c *Cholesky) Reserve(n int) {
	size := n * (n + 1) / 2
	if cap(c.d) < size {
		d := make([]float64, len(c.d), size)
		copy(d, c.d)
		c.d = d
	}
}

// L returns the lower-triangular factor as a dense matrix (freshly
// allocated; mutating it does not affect the factorization).
func (c *Cholesky) L() *Dense {
	l := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		copy(l.Row(i)[:i+1], c.Row(i))
	}
	return l
}

// SolveVecTo solves A x = b into dst without allocating. dst may alias b.
func (c *Cholesky) SolveVecTo(dst, b []float64) {
	c.SolveLowerVecTo(dst, b)
	c.solveUpperInPlace(dst)
}

// SolveLowerVecTo solves L y = b into dst without allocating. dst may alias
// b (entry i is consumed before it is overwritten).
//
// Four rows are solved side by side: their k < i subtract chains are
// independent of one another, so the processor overlaps them, and the 4x4
// corner then finishes each row in order. Every row still subtracts over
// ascending k and divides once — the one-row loop's bits.
func (c *Cholesky) SolveLowerVecTo(dst, b []float64) {
	if len(b) != c.n || len(dst) != c.n {
		panic("mat: solve dimension mismatch")
	}
	i := 0
	for ; i+4 <= c.n; i += 4 {
		r0, r1, r2, r3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		s0, s1, s2, s3 := b[i], b[i+1], b[i+2], b[i+3]
		for k, y := range dst[:i] {
			s0 -= r0[k] * y
			s1 -= r1[k] * y
			s2 -= r2[k] * y
			s3 -= r3[k] * y
		}
		s0 /= r0[i]
		s1 -= r1[i] * s0
		s1 /= r1[i+1]
		s2 -= r2[i] * s0
		s2 -= r2[i+1] * s1
		s2 /= r2[i+2]
		s3 -= r3[i] * s0
		s3 -= r3[i+1] * s1
		s3 -= r3[i+2] * s2
		s3 /= r3[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < c.n; i++ {
		s := b[i]
		row := c.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// solveBatchCols is the column-block width of SolveLowerBatchTo: wide enough
// to amortize the per-row factor loads over many right-hand sides, narrow
// enough that the active dst rows of a block stay cache-resident.
const solveBatchCols = 128

// SolveLowerBatchTo solves L Y = B for every column of B by blocked forward
// substitution: B and dst are n x m matrices whose m columns are independent
// right-hand sides. dst may alias b (entry rows are consumed before they are
// overwritten, as in SolveLowerVecTo); otherwise b is left untouched.
//
// Columns never interact: for each column j the subtraction order over k and
// the final division are exactly those of SolveLowerVecTo, so the batched
// solve is bit-identical to m per-vector solves. The batching win is purely
// mechanical — each packed factor row is loaded once per column block instead
// of once per right-hand side, and the inner loop runs over independent
// columns instead of a loop-carried dependency chain.
func (c *Cholesky) SolveLowerBatchTo(dst, b *Dense) {
	if b.rows != c.n || dst.rows != c.n || b.cols != dst.cols {
		panic("mat: batch solve dimension mismatch")
	}
	if dst != b {
		copy(dst.data, b.data)
	}
	m := dst.cols
	for lo := 0; lo < m; lo += solveBatchCols {
		hi := lo + solveBatchCols
		if hi > m {
			hi = m
		}
		for i := 0; i < c.n; i++ {
			fwdSubCols(dst.data, dst.cols, c.Row(i), i, lo, hi)
		}
	}
}

// solveUpperInPlace solves Lᵀ x = x by back substitution in place.
func (c *Cholesky) solveUpperInPlace(x []float64) {
	if len(x) != c.n {
		panic("mat: solve dimension mismatch")
	}
	for i := c.n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < c.n; k++ {
			s -= c.d[k*(k+1)/2+i] * x[k]
		}
		x[i] = s / c.d[i*(i+1)/2+i]
	}
}

// LogDet returns log|A| = 2 * sum(log L_ii).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.d[i*(i+1)/2+i])
	}
	return 2 * s
}

// InverseDiagTo fills dst with the diagonal of A⁻¹: entry k is bit for bit
// the x[k] that solving A x = e_k with SolveVecTo leaves, for about a third
// of the n³ multiply-adds of n such solves. Column k's forward solve
// L y = e_k starts at row k: the entries above it are exactly +0, and
// subtracting a product with +0 from +0, or from the 1 at row k, changes no
// bit, so the skipped terms are no-ops. Its back substitution Lᵀ x = y stops
// at row k, the entry wanted; the rows it skips are never read by it.
//
// Columns go through factorPanel at a time as the lanes of one block, each
// lane the one-column op sequence (solveLanes), so a block may start its
// forward solve at its first column's row: for the later lanes that only
// adds more of those no-op terms. The back substitution reads L by column,
// gathered one row of the block at a time. dst is the only storage the
// caller sees; the block is pooled scratch.
func (c *Cholesky) InverseDiagTo(dst []float64) {
	n := c.n
	if len(dst) != n {
		panic(fmt.Sprintf("mat: inverse diagonal length %d != %d", len(dst), n))
	}
	const s = factorPanel
	pp := panelPool.Get().(*[]float64)
	defer panelPool.Put(pp)
	// n+1 block rows (the last stays zero, so the bottom row's back
	// substitution has rows to point at), then the gathered column.
	if need := (n+1)*s + n; cap(*pp) < need {
		*pp = make([]float64, need)
	}
	buf := (*pp)[:cap(*pp)]
	for k0 := 0; k0 < n; k0 += s {
		m := n - k0 // block row r is matrix row k0+r
		blk, col := buf[:(m+1)*s], buf[(m+1)*s:(m+1)*s+m]
		clear(blk)
		for p := 0; p < min(s, m); p++ {
			blk[p*s+p] = 1
		}
		for r := 0; r < m; r++ {
			solveLanes(blk[r*s:r*s+s], blk, s, c.Row(k0 + r)[k0:])
		}
		for r := m - 1; r >= 0; r-- {
			// col holds L[i+1..n)[i] and then the divisor L[i][i], i = k0+r.
			i, t := k0+r, m-1-r
			for j, o := 0, (i+1)*(i+2)/2+i; j < t; j++ {
				col[j] = c.d[o]
				o += i + 2 + j
			}
			col[t] = c.d[i*(i+1)/2+i]
			solveLanes(blk[r*s:r*s+s], blk[(r+1)*s:], s, col[:t+1])
		}
		for p := 0; p < min(s, m); p++ {
			dst[k0+p] = blk[p*s+p]
		}
	}
}
