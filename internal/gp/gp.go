package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/mat"
)

// GP is an exact Gaussian-process regressor with a constant (empirical) mean
// and homoscedastic Gaussian observation noise.
//
// Concurrency: Predict, LOO and LogMarginalLikelihood may be called from many
// goroutines at once — scratch space comes from an internal pool — but Fit
// and FitHyperparams mutate the model and must not run concurrently with
// anything else on the same GP.
type GP struct {
	kernel Matern52
	// NoiseVariance is the observation noise variance added to the kernel
	// diagonal. It is fit together with the kernel hyperparameters.
	NoiseVariance float64

	x     [][]float64
	y     []float64
	meanY float64

	// obsW holds optional per-observation weights in (0, 1] (parallel to x
	// at Fit time). Observation i contributes with effective noise variance
	// NoiseVariance/obsW[i] — exponential-forgetting weights implemented as
	// age-scaled noise inflation, so a down-weighted point behaves like a
	// noisier measurement of the same function. nil means uniform weights;
	// the nil path adds NoiseVariance directly, and since w==1 divides to
	// the identical bits, weights ≡ 1 are indistinguishable from no weights.
	obsW []float64

	// chol and alpha — (K + Σ)⁻¹ (y - mean), Σ the (weighted) noise diagonal
	// — live in bufs' storage; chol is nil while there is no factorization,
	// and bufs outlives that so the next one reuses it. refactors counts
	// rebuilds (the lifecycle test tells a rebuild from an append by it).
	bufs      *factorBufs
	chol      *mat.Cholesky
	alpha     []float64
	refactors int

	// factorParams/factorNoise/factorW record the hyperparameters and the
	// per-view-entry observation weights the current factorization was built
	// with; Fit takes the O(n²) incremental path only when they still match.
	factorParams []float64
	factorNoise  float64
	factorW      []float64

	// view is the effective training set every factorization, solve and
	// prediction runs over: ascending indices into x, nil meaning the
	// identity (the whole history — exact inference). tx holds the viewed
	// inputs; under the identity it aliases x, so exact mode gathers and
	// allocates nothing. sparse configures when Fit conditions on a proper
	// subset (SetSparse; the zero value never does). appendsSinceSelect
	// counts incremental appends against the amortized re-selection budget;
	// reselects counts selection passes (telemetry).
	view               []int
	tx                 [][]float64
	sparse             SparseConfig
	appendsSinceSelect int
	reselects          int

	// xt holds tx transposed (dim x TrainN, one view entry per column) in
	// xtData, for the vector kernel rows of refactor's fill and of point-wise
	// prediction (kernelRow). Fit rebuilds it in place whenever it sets the
	// view; search clones share it read-only with the GP they were cloned
	// from, whose view they refactor.
	xtData []float64
	xt     mat.Dense

	// rowBuf is appendPoint's persistent bordered-row scratch, so the
	// incremental fit path allocates nothing in steady state.
	rowBuf []float64

	// scratch pools per-Predict buffers so the acquisition path (which
	// calls Predict tens of thousands of times per tuning iteration, from
	// many goroutines) runs allocation-free in steady state.
	scratch sync.Pool
	// batch pools per-PredictBatch workspaces (cross-covariance block,
	// solve block, prior row) for the same reason.
	batch sync.Pool
}

type predictBuf struct {
	ks, v []float64
	rowScratch
}

// batchBuf is the pooled workspace of one PredictBatch call: the n x m
// cross-covariance block, the n x m forward-solve block, and the m-vector of
// prior variances. The Dense headers are retained and re-dressed over the
// backing arrays with Reset, so steady-state use allocates nothing.
type batchBuf struct {
	kdata, vdata []float64
	kstar, v     mat.Dense
	prior        []float64
}

// factorBufs is the storage one factorization lives in: the packed factor
// and the weight vector. A GP keeps its own; the clones of a hyperparameter
// search borrow theirs from searchBufs, the winner's is swapped into the GP
// (adopt) and every other one goes back, so a search allocates per candidate
// only the clone's small header.
type factorBufs struct {
	chol  mat.Cholesky
	alpha []float64
}

var searchBufs = sync.Pool{New: func() any { return new(factorBufs) }}

// kernelScratch is the n x n matrix a refactor fills and factors, with the
// scratch of the fill's kernel rows. It is needed only in between, so
// concurrent refactors share a pool of them and no GP holds one.
type kernelScratch struct {
	data []float64
	k    mat.Dense
	rowScratch
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// roomFor rounds a training-set size up to the next multiple of 32, the
// capacity pooled storage is grown to: a history grows by one point per
// tuning iteration, and exact-size buffers would be reallocated every time.
func roomFor(n int) int { return (n + 31) &^ 31 }

func (bb *batchBuf) resize(n, m int) {
	if cap(bb.kdata) < n*m {
		bb.kdata = make([]float64, n*m)
		bb.vdata = make([]float64, n*m)
	}
	if cap(bb.prior) < m {
		bb.prior = make([]float64, m)
	}
	bb.kstar.Reset(n, m, bb.kdata[:n*m])
	bb.v.Reset(n, m, bb.vdata[:n*m])
	bb.prior = bb.prior[:m]
}

// New returns an unfitted GP with a copy of the given kernel and the given
// noise variance.
func New(kernel *Matern52, noiseVariance float64) *GP {
	return &GP{kernel: *kernel, NoiseVariance: noiseVariance}
}

// N returns the number of training observations.
func (g *GP) N() int { return len(g.x) }

// TrainN returns the effective training-set size the current fit conditions
// on — the anchor count under sparse inference (SetSparse), N() otherwise.
// Callers building cross-covariance blocks for CrossCovTo size them by
// TrainN.
func (g *GP) TrainN() int { return len(g.tx) }

// X returns the training inputs (shared storage).
func (g *GP) X() [][]float64 { return g.x }

// Y returns the training targets (shared storage).
func (g *GP) Y() []float64 { return g.y }

// SetObservationWeights installs per-observation weights for subsequent Fit
// calls: observation i is conditioned on with effective noise variance
// NoiseVariance/w[i], so w[i]=1 is an ordinary observation and w[i]→0
// forgets the point (its likelihood contribution decays toward the prior).
// The slice is retained by reference and must stay parallel to the inputs
// handed to Fit; nil restores uniform weights. Weights must be positive and
// finite (validated at Fit). A fit whose weights are all exactly 1 is
// bit-identical to an unweighted fit.
func (g *GP) SetObservationWeights(w []float64) { g.obsW = w }

// at maps view entry k to its position in the history — the one place the
// effective training set is translated back to x, y and obsW.
func (g *GP) at(k int) int {
	if g.view == nil {
		return k
	}
	return g.view[k]
}

// obsNoise returns view entry k's noise variance: the homoscedastic
// NoiseVariance inflated by the inverse observation weight of the history
// point behind it, so an anchor keeps the exact noise it would have carried
// in a full fit.
func (g *GP) obsNoise(k int) float64 {
	if g.obsW == nil {
		return g.NoiseVariance
	}
	return g.NoiseVariance / g.obsW[g.at(k)]
}

// Fit conditions the GP on observations (x, y). It copies neither slice, so
// callers must not mutate them afterwards.
//
// Fit owns the one factor-maintenance rule. The effective training set is a
// view of the history: the identity at or below SparseConfig.Threshold (or
// with sparse inference disabled), an anchor subset above it. The factor is
// *extended* by one row in O(m²), m the view size, iff
//
//   - a factor exists, and the history extends the previous one by exactly
//     one point (a suffix);
//   - the next view is the previous view plus that point — always under the
//     identity; under anchors while the append budget (ReselectEvery) lasts,
//     so the most recent evidence is always conditioned on;
//   - the factor's recorded kernel hyperparameters, noise variance and
//     per-view-entry observation weights equal the current ones.
//
// Otherwise it is *rebuilt* in O(m³) over a freshly chosen view: the
// identity, or one farthest-point re-selection (SelectAnchors) — so
// activation, the budget expiring, a hyperparameter change that was not
// adopted from the factor's own search, a forgetting decay and a
// non-extending history each pay one rebuild, after which appends are open
// again. The appended factor is bit-identical to a full refactor of the same
// view (see mat.Cholesky.Append), so which path ran is invisible to
// callers. Targets may change wholesale between fits (e.g. re-standardized
// histories): they only enter the O(m²) weight solve, not the
// factorization.
func (g *GP) Fit(x [][]float64, y []float64) error {
	if len(x) != len(y) {
		return fmt.Errorf("gp: %d inputs but %d targets", len(x), len(y))
	}
	if len(x) == 0 {
		return errors.New("gp: no observations")
	}
	if g.obsW != nil {
		if len(g.obsW) != len(x) {
			return fmt.Errorf("gp: %d observation weights but %d inputs", len(g.obsW), len(x))
		}
		for i, w := range g.obsW {
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return fmt.Errorf("gp: observation weight %d is %v (must be finite and positive)", i, w)
			}
		}
	}
	n := len(x)
	anchored := g.sparse.Threshold > 0 && n > g.sparse.Threshold
	extend := g.chol != nil && n == len(g.x)+1 &&
		anchored == (g.view != nil) &&
		(!anchored || g.appendsSinceSelect < g.sparse.ReselectEvery) &&
		g.factorMatchesKernel() && g.viewWeightsMatch() &&
		extendsPrefix(x, g.x)
	g.x, g.y = x, y
	g.meanY = mean(y)
	if extend {
		if anchored {
			g.view = append(g.view, n-1)
			g.tx = append(g.tx, x[n-1])
		} else {
			g.tx = x
		}
		g.transposeView()
		if err := g.appendPoint(); err == nil {
			if anchored {
				g.appendsSinceSelect++
			}
			return nil
		}
		// Numerically borderline border: fall back to the rebuild (which
		// drops the speculative anchor), whose jittered diagonal
		// recomputation decides for real.
	}
	if anchored {
		g.selectAnchors()
	} else {
		g.view, g.tx = nil, x
	}
	g.transposeView()
	return g.refactor(math.Inf(-1))
}

// transposeView rebuilds xt from the current view in place, reusing its
// storage (grown in roomFor steps, like the factor's).
func (g *GP) transposeView() {
	n, dim := len(g.tx), len(g.tx[0])
	if cap(g.xtData) < dim*n {
		g.xtData = make([]float64, dim*roomFor(n))
	}
	g.xt.Reset(dim, n, g.xtData[:dim*n])
	transposeTo(g.xtData, g.tx, dim)
}

// factorMatchesKernel reports whether the current factorization was built
// with the kernel's present hyperparameters.
func (g *GP) factorMatchesKernel() bool {
	if g.factorParams == nil || g.NoiseVariance != g.factorNoise {
		return false
	}
	p := g.kernel.Params()
	return p[0] == g.factorParams[0] && p[1] == g.factorParams[1]
}

// viewWeightsMatch reports whether the current factorization's noise
// diagonal was built with the presently installed observation weights at
// every view entry. A weights change (forgetting decayed the history)
// forces a rebuild; between changes the incremental path stays open.
func (g *GP) viewWeightsMatch() bool {
	if g.factorW == nil {
		return g.obsW == nil
	}
	if g.obsW == nil || len(g.factorW) != len(g.tx) {
		return false
	}
	for k, w := range g.factorW {
		if i := g.at(k); i >= len(g.obsW) || g.obsW[i] != w {
			return false
		}
	}
	return true
}

// extendsPrefix reports whether x begins with exactly the rows of old
// (pointer-identical rows short-circuit the value comparison; histories
// share observation storage across iterations, so this is the common case).
func extendsPrefix(x, old [][]float64) bool {
	for i, o := range old {
		xi := x[i]
		if len(xi) != len(o) {
			return false
		}
		if len(o) > 0 && &xi[0] == &o[0] {
			continue
		}
		for d := range o {
			if xi[d] != o[d] {
				return false
			}
		}
	}
	return true
}

// appendPoint extends the factorization by the last view entry in O(n²), n
// the view size. The bordered row lives in a persistent scratch buffer —
// mat.Cholesky.Append copies it into the packed factor — so steady-state
// appends allocate nothing beyond the factor's own amortized growth.
func (g *GP) appendPoint() error {
	tx := g.tx
	n := len(tx)
	xn := tx[n-1]
	if cap(g.rowBuf) < n {
		g.rowBuf = make([]float64, n, 2*n)
	}
	row := g.rowBuf[:n]
	for i := 0; i < n-1; i++ {
		row[i] = g.kernel.Eval(xn, tx[i])
	}
	row[n-1] = g.kernel.Eval(xn, xn) + g.obsNoise(n-1) + jitter
	if err := g.chol.Append(row); err != nil {
		return err
	}
	if g.obsW != nil {
		g.factorW = append(g.factorW, g.obsW[g.at(n-1)])
	}
	g.solveAlpha()
	return nil
}

// jitter is added to every diagonal entry of the kernel matrix, on top of
// the noise, for numerical stability.
const jitter = 1e-8

// pruneStride is the number of rows refactor fills and factors between two
// looks at its bound. It is a constant: sessions ran no faster at 8, and
// slower at 32 or 64, where candidates are abandoned later.
const pruneStride = 16

// errPruned is refactor's report of a search candidate it abandoned.
var errPruned = errors.New("gp: candidate cannot beat the incumbent")

// refactor rebuilds the Cholesky factorization for the current view and
// hyperparameters, reusing the factor storage. It never changes the view (Fit
// owns that decision), so hyperparameter-search clones and
// AdoptHyperparamsFrom refactor the same subset they were handed.
//
// The kernel matrix is filled and factored pruneStride rows at a time. A
// hyperparameter search passes its incumbent's log marginal likelihood as
// beat, and after every panel but the last refactor abandons the candidate —
// leaving it without a factor and returning errPruned — once the rows done
// prove that its LML could not exceed beat (lmlBound). Everyone else passes
// −Inf, which never abandons. A factorization that finishes is the same
// whatever beat was.
func (g *GP) refactor(beat float64) error {
	n := len(g.tx)
	g.refactors++
	if g.bufs == nil {
		g.bufs = new(factorBufs)
	}
	ks := kernelPool.Get().(*kernelScratch)
	ks.resize(n)
	c := &g.bufs.chol
	c.Reset()
	c.Reserve(roomFor(n))
	var bound lmlBound
	prune := beat > math.Inf(-1)
	if prune {
		bound.start(g)
	}
	var err error
	for c.N() < n {
		i0 := c.N()
		w := min(pruneStride, n-i0)
		g.fillKernel(ks, i0, w)
		if err = c.Grow(&ks.k, w); err != nil {
			err = fmt.Errorf("gp: factorization failed: %w", err)
			break
		}
		if prune && c.N() < n && !bound.canBeat(g, i0, beat) {
			err = errPruned
			break
		}
	}
	kernelPool.Put(ks)
	if err != nil {
		g.dropFactor()
		return err
	}
	g.chol = c
	g.factorParams = append(g.factorParams[:0], g.kernel.Params()...)
	g.factorNoise = g.NoiseVariance
	if g.obsW == nil {
		g.factorW = nil
	} else {
		g.factorW = g.factorW[:0]
		for k := 0; k < n; k++ {
			g.factorW = append(g.factorW, g.obsW[g.at(k)])
		}
	}
	g.solveAlpha()
	return nil
}

// resize sizes the scratch for an n x n matrix.
func (ks *kernelScratch) resize(n int) {
	if room := roomFor(n); cap(ks.data) < n*n {
		ks.data = make([]float64, room*room)
		ks.r, ks.e = make([]float64, room), make([]float64, room)
	}
	ks.k.Reset(n, n, ks.data[:n*n])
}

// fillKernel writes into ks.k what growing the factor over view entries
// [i0, i0+w) reads of K + Σ + jitter — columns i0..i0+w of the upper
// triangle, the diagonal with its noise and jitter — leaving the rest of the
// matrix as found. The panel's rows are vector kernel rows over the
// transposed view, whose entries are Eval's bit for bit, in full up to the
// panel's right edge; they are then mirrored into the columns above it,
// which is exact because k(a, b) and k(b, a) are the same bits (the distance
// squares a difference and its negation alike).
func (g *GP) fillKernel(ks *kernelScratch, i0, w int) {
	k, tx, hi := &ks.k, g.tx, i0+w
	dim, _ := g.xt.Dims()
	for j := i0; j < hi; j++ {
		ks.row(&g.kernel, k.Row(j)[:hi], tx[j][:dim], &g.xt)
	}
	for t := 0; t < i0; t++ {
		row := k.Row(t)[i0:hi]
		for p := range row {
			row[p] = k.At(i0+p, t)
		}
	}
	for i := i0; i < hi; i++ {
		k.Set(i, i, k.At(i, i)+g.obsNoise(i)+jitter)
	}
}

// lmlBound bounds the log marginal likelihood of a factorization in progress.
// With r = y − mean over the view's m entries, z = L⁻¹r and f_i = σ²/w_i +
// jitter the noise and jitter on entry i's diagonal,
//
//	LML = −½‖z‖² − Σ_i log L_ii − ½m·log 2π.
//
// After k rows Q_k = Σ_{i<k} z_i² and Λ_k = Σ_{i<k} log L_ii are known, and
// every later pivot has L_ii² ≥ f_i: it is the variance of entry i
// conditioned on the entries before it, which keeps at least its own noise
// and jitter. Hence LML ≤ U_k = −½Q_k − Λ_k − ½Σ_{i≥k} log f_i − ½m·log 2π.
// That holds in exact arithmetic; a margin of 1e-6 of the terms' magnitudes
// covers the rounding of the finished factor's LML (of order m·ε·cond(L),
// cond(L) ≤ 10⁴ for the search's bounds).
type lmlBound struct {
	quad, logDiag float64 // Q_k and Λ_k
	floor         float64 // ½Σ_{i≥k} log f_i
}

// start sets up a zero bound before any row is factored; z will live in the
// α buffer, which solveAlpha overwrites if the factorization finishes.
func (b *lmlBound) start(g *GP) {
	m := len(g.tx)
	if cap(g.bufs.alpha) < m {
		g.bufs.alpha = make([]float64, roomFor(m))
	}
	for i := 0; i < m; i++ {
		b.floor += math.Log(g.obsNoise(i) + jitter)
	}
	b.floor *= 0.5
}

// canBeat takes rows [lo, N) of the factor in progress into the bound —
// forward-substituting r through them into z — and reports whether the
// finished factor's LML could still exceed beat.
func (b *lmlBound) canBeat(g *GP, lo int, beat float64) bool {
	c, z := &g.bufs.chol, g.bufs.alpha
	for i := lo; i < c.N(); i++ {
		row := c.Row(i)
		s := g.y[g.at(i)] - g.meanY
		for j, l := range row[:i] {
			s -= l * z[j]
		}
		z[i] = s / row[i]
		b.quad += z[i] * z[i]
		b.logDiag += math.Log(row[i])
		b.floor -= 0.5 * math.Log(g.obsNoise(i)+jitter)
	}
	norm := 0.5 * float64(len(g.tx)) * math.Log(2*math.Pi)
	upper := -0.5*b.quad - b.logDiag - b.floor - norm
	margin := 1e-6 * (1 + 0.5*math.Abs(b.quad) + math.Abs(b.logDiag) + math.Abs(b.floor) + norm + math.Abs(beat))
	return upper+margin >= beat
}

// dropFactor leaves the GP without a factorization (Predict returns the
// prior, the next Fit rebuilds).
func (g *GP) dropFactor() {
	g.chol = nil
	g.factorParams = nil
	g.factorW = nil
}

// solveAlpha recomputes the weight vector α = (K + σ²I)⁻¹ (y − mean) for the
// current factorization, reusing the α buffer. The targets are the view's,
// but the mean is always the full-history mean — the constant-mean estimate
// uses every observation even when the covariance conditions on a subset.
func (g *GP) solveAlpha() {
	n := len(g.tx)
	if cap(g.bufs.alpha) < n {
		g.bufs.alpha = make([]float64, roomFor(n))
	}
	g.alpha = g.bufs.alpha[:n]
	for i := 0; i < n; i++ {
		g.alpha[i] = g.y[g.at(i)] - g.meanY
	}
	g.chol.SolveVecTo(g.alpha, g.alpha)
}

// Predict returns the posterior mean and variance at x. The variance
// includes the observation-noise term, matching what a replay measurement
// would exhibit. An unfitted GP returns the prior. Predict is safe for
// concurrent use and allocation-free in steady state.
func (g *GP) Predict(x []float64) (mu, variance float64) {
	prior := g.kernel.Eval(x, x) + g.NoiseVariance
	if g.chol == nil {
		return 0, prior
	}
	pb := g.predictBuf()
	ks, v := g.kernelRow(pb, x), pb.v[:len(g.tx)]
	mu = g.meanY + mat.Dot(ks, g.alpha)
	g.chol.SolveLowerVecTo(v, ks)
	variance = prior - mat.Dot(v, v)
	g.scratch.Put(pb)
	if variance < 1e-12 {
		variance = 1e-12
	}
	return mu, variance
}

// PredictMean returns Predict's posterior mean alone, bit for bit, without
// the forward solve the variance needs: O(n) instead of O(n²). An unfitted GP
// returns the prior mean, 0. Safe for concurrent use.
func (g *GP) PredictMean(x []float64) float64 {
	if g.chol == nil {
		return 0
	}
	pb := g.predictBuf()
	mu := g.meanY + mat.Dot(g.kernelRow(pb, x), g.alpha)
	g.scratch.Put(pb)
	return mu
}

// predictBuf takes a point-wise scratch buffer sized for the view from the
// pool; the caller puts it back. Its four arrays share one allocation.
func (g *GP) predictBuf() *predictBuf {
	n := len(g.tx)
	pb, _ := g.scratch.Get().(*predictBuf)
	if pb == nil {
		pb = &predictBuf{}
	}
	if cap(pb.ks) < n {
		room := roomFor(n)
		all := make([]float64, 4*room)
		pb.ks, pb.v, pb.r, pb.e = all[:room:room], all[room:2*room:2*room], all[2*room:3*room:3*room], all[3*room:]
	}
	return pb
}

// kernelRow fills and returns pb's row k(x, tx[i]) over the view: the vector
// row over the transposed view, whose entries are Eval's bit for bit. It
// panics unless x has the dimension of the training inputs.
func (g *GP) kernelRow(pb *predictBuf, x []float64) []float64 {
	if dim, _ := g.xt.Dims(); dim != len(x) {
		panic(fmt.Sprintf("gp: %d-dimensional point for a GP on %d-dimensional inputs", len(x), dim))
	}
	ks := pb.ks[:len(g.tx)]
	pb.row(&g.kernel, ks, x, &g.xt)
	return ks
}

// CrossCovTo fills dst (a TrainN() x len(X) matrix) with the cross-covariance
// block between the training inputs and the candidate batch X: dst[i][j] =
// k(x_i, X[j]). The candidates are transposed once, so the distance, sqrt
// and exp passes of every row vectorize over them; every entry matches the
// point-wise Eval bit for bit.
func (g *GP) CrossCovTo(dst *mat.Dense, X [][]float64) {
	tx := g.tx
	if r, c := dst.Dims(); r != len(tx) || c != len(X) {
		panic("gp: cross-covariance dimension mismatch")
	}
	if len(X) == 0 || len(tx) == 0 {
		return
	}
	dim := len(tx[0])
	cs := getCrossScratch(X, dim)
	for i, xi := range tx {
		cs.row(&g.kernel, dst.Row(i), xi[:dim], &cs.xt)
	}
	crossPool.Put(cs)
}

// SharesCrossCov reports whether g and o would build bit-identical
// cross-covariance blocks for any candidate batch: the same effective
// training inputs (pointer-identical history storage, and under sparse
// conditioning the same anchor indices into it) under equal kernels.
// Co-trained surrogates (TriGP's three metric GPs, fitted on one shared
// theta track) use this to compute the block once and share it; anchor
// selection is a pure function of the shared inputs, so sibling GPs with
// the same sparse configuration always agree on the subset.
func (g *GP) SharesCrossCov(o *GP) bool {
	if len(g.x) != len(o.x) {
		return false
	}
	if len(g.x) > 0 && &g.x[0] != &o.x[0] {
		return false
	}
	if (g.view == nil) != (o.view == nil) || len(g.view) != len(o.view) {
		return false
	}
	for k, i := range g.view {
		if o.view[k] != i {
			return false
		}
	}
	return g.kernel == o.kernel
}

// SharesSolve reports whether g and o compute bit-identical posterior
// variances for any candidate batch: SharesCrossCov plus equal noise
// variance and equal observation weights on two fitted GPs. The
// factorization is a pure function of (training inputs, kernel, noise
// diagonal) — mat.Cholesky.Append is bit-identical to a full Factor — so
// two such GPs carry the same Cholesky factor, the same prior variances,
// and therefore the same forward solve and posterior variance. Only the mean differs (it depends on the targets), so a sharing
// caller pairs one full posterior computation with MeanBatchCov calls for
// the rest of the family and copies the variance outright.
func (g *GP) SharesSolve(o *GP) bool {
	return g.chol != nil && o.chol != nil &&
		g.NoiseVariance == o.NoiseVariance &&
		weightsEqual(g.obsW, o.obsW) && g.SharesCrossCov(o)
}

// weightsEqual reports whether two observation-weight vectors build the
// same noise diagonal (nil means uniform; an all-ones vector is a distinct
// representation and compared elementwise).
func weightsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MeanBatchCov fills mu with the posterior mean at every candidate from a
// caller-provided cross-covariance block — exactly the mean half of
// PredictBatchCov, bit for bit, the prior mean 0 when unfitted — for callers
// that share the variance from a sibling GP for which SharesSolve holds, or
// need no variance at all.
func (g *GP) MeanBatchCov(kstar *mat.Dense, mu []float64) {
	if g.chol == nil {
		for j := range mu {
			mu[j] = 0
		}
		return
	}
	mat.MulTVecTo(mu, kstar, g.alpha)
	for j := range mu {
		mu[j] += g.meanY
	}
}

// PredictBatch computes the posterior mean and variance at every candidate in
// X, filling mu and variance (each len(X)). It is bit-identical to calling
// Predict per candidate — same kernel arithmetic, same solve order, same
// variance floor — but builds the cross-covariance block with per-row hoisted
// kernel terms and forward-substitutes all candidates through the Cholesky
// factor in one blocked pass. Safe for concurrent use; allocation-free in
// steady state (workspaces are pooled, outputs are caller-provided).
func (g *GP) PredictBatch(X [][]float64, mu, variance []float64) {
	m := len(X)
	if len(mu) != m || len(variance) != m {
		panic("gp: batch output length mismatch")
	}
	if m == 0 {
		return
	}
	if g.chol == nil {
		g.priorBatch(X, mu, variance)
		return
	}
	bb := g.getBatchBuf(len(g.tx), m)
	g.CrossCovTo(&bb.kstar, X)
	g.predictBatchCov(bb, &bb.kstar, X, mu, variance)
	g.batch.Put(bb)
}

// PredictBatchCov is PredictBatch with a caller-provided cross-covariance
// block (as built by CrossCovTo, N() x len(X)). The block is read, never
// written, so one block can serve several GPs for which SharesCrossCov holds
// — they differ only in targets, noise and factorization. The caller is
// responsible for that agreement; a mismatched block silently yields the
// wrong posterior.
func (g *GP) PredictBatchCov(kstar *mat.Dense, X [][]float64, mu, variance []float64) {
	m := len(X)
	if len(mu) != m || len(variance) != m {
		panic("gp: batch output length mismatch")
	}
	if m == 0 {
		return
	}
	if g.chol == nil {
		g.priorBatch(X, mu, variance)
		return
	}
	bb := g.getBatchBuf(len(g.tx), m)
	g.predictBatchCov(bb, kstar, X, mu, variance)
	g.batch.Put(bb)
}

// priorBatch fills the unfitted posterior, matching Predict's prior branch.
func (g *GP) priorBatch(X [][]float64, mu, variance []float64) {
	for j, x := range X {
		mu[j] = 0
		variance[j] = g.kernel.Eval(x, x) + g.NoiseVariance
	}
}

func (g *GP) getBatchBuf(n, m int) *batchBuf {
	bb, _ := g.batch.Get().(*batchBuf)
	if bb == nil {
		bb = &batchBuf{}
	}
	bb.resize(n, m)
	return bb
}

// predictBatchCov is the shared body of PredictBatch/PredictBatchCov. Per
// candidate j it performs exactly Predict's op sequence: prior = k(x,x) + σ²;
// mu = mean + Σ_i ks[i]·α[i] (ascending i); v = forward solve of ks through
// L (ascending rows); variance = prior − Σ_i v[i]² (ascending i), floored at
// 1e-12. MulTVecTo, SolveLowerBatchTo and ColDotsTo each preserve that
// per-column order, so batch results carry the same bits as point-wise ones.
func (g *GP) predictBatchCov(bb *batchBuf, kstar *mat.Dense, X [][]float64, mu, variance []float64) {
	for j, x := range X {
		bb.prior[j] = g.kernel.Eval(x, x) + g.NoiseVariance
	}
	mat.MulTVecTo(mu, kstar, g.alpha)
	for j := range mu {
		mu[j] += g.meanY
	}
	g.chol.SolveLowerBatchTo(&bb.v, kstar)
	mat.ColDotsTo(variance, &bb.v)
	for j := range variance {
		variance[j] = bb.prior[j] - variance[j]
		if variance[j] < 1e-12 {
			variance[j] = 1e-12
		}
	}
}

// AdoptHyperparamsFrom installs o's kernel hyperparameters and noise
// variance into g and refactors g's current fit under them. It is the
// explicit way to construct a sharing family: afterwards, if g and o hold
// the same training inputs, SharesSolve(g, o) holds and batched posterior
// callers can share one cross-covariance block and triangular solve across
// both GPs.
func (g *GP) AdoptHyperparamsFrom(o *GP) error {
	g.kernel.SetParams(o.kernel.Params())
	g.NoiseVariance = o.NoiseVariance
	return g.refactor(math.Inf(-1))
}

// LogMarginalLikelihood returns log p(y | X, θ) for the current fit. Under
// sparse conditioning it is the anchor subset's marginal likelihood — the
// subset-of-data objective the hyperparameter search maximizes.
func (g *GP) LogMarginalLikelihood() float64 {
	if g.chol == nil {
		return math.Inf(-1)
	}
	m := len(g.alpha)
	quad := 0.0
	for i := 0; i < m; i++ {
		quad += (g.y[g.at(i)] - g.meanY) * g.alpha[i]
	}
	return -0.5*quad - 0.5*g.chol.LogDet() - 0.5*float64(m)*math.Log(2*math.Pi)
}

// LOO returns leave-one-out posterior means and variances at every training
// point without refitting hyperparameters, via the standard identities
// μ_i = y_i − α_i / K⁻¹_ii and σ²_i = 1 / K⁻¹_ii. This is exactly the
// "remove the data point from the GP model, kernel hyper-parameters do not
// need re-estimation" construction of paper Section 6.4.2. It reads only the
// diagonal of K⁻¹ (mat.Cholesky.InverseDiagTo), so it allocates O(n) and
// leaves the GP as it found it.
//
// The returned vectors always span the full fitted history, so ranking-loss
// consumers (meta.DynamicWeightsOpts) see one entry per observation whether
// or not sparse conditioning is active. Under sparse conditioning, anchors
// use the LOO identity on the anchor factor; every non-anchor observation
// is genuinely held out of the subset-of-data fit already, so its
// leave-one-out posterior is simply the model's posterior at that input.
func (g *GP) LOO() (mu, variance []float64) {
	if g.chol == nil {
		return nil, nil
	}
	kinv := make([]float64, len(g.tx))
	g.chol.InverseDiagTo(kinv)
	n := len(g.y)
	mu = make([]float64, n)
	variance = make([]float64, n)
	// The view is ascending, so one pass over the history with a cursor into
	// it finds each point's role: a view entry takes the LOO identity on the
	// factor, any other point is held out of the fit already and takes the
	// model's posterior. Under the identity every point is a view entry.
	k := 0
	for i := 0; i < n; i++ {
		if k == len(g.tx) || g.at(k) != i {
			mu[i], variance[i] = g.Predict(g.x[i])
			continue
		}
		kii := kinv[k]
		mu[i] = g.y[i] - g.alpha[k]/kii
		variance[i] = 1 / kii
		if variance[i] < 1e-12 {
			variance[i] = 1e-12
		}
		k++
	}
	return mu, variance
}

// cloneForSearch returns a GP sharing the (read-only) training data with an
// independent kernel and factorization state, for concurrent hyperparameter
// candidate evaluation. The view is shared too: every candidate of a search
// refactors the same subset the incumbent conditions on (selection is
// input-only, so candidates could never disagree on it anyway), and so is
// its transpose, read-only: the winning clone's factor is adopted without
// touching either. The clone's factor storage is borrowed: releaseBufs hands
// it back.
func (g *GP) cloneForSearch() *GP {
	return &GP{
		bufs:          searchBufs.Get().(*factorBufs),
		kernel:        g.kernel,
		NoiseVariance: g.NoiseVariance,
		x:             g.x,
		y:             g.y,
		obsW:          g.obsW,
		meanY:         g.meanY,
		sparse:        g.sparse,
		view:          g.view,
		tx:            g.tx,
		xt:            g.xt,
	}
}

// releaseBufs returns a search clone's factor storage to the pool, leaving
// the clone unfitted.
func (g *GP) releaseBufs() {
	if g.bufs != nil {
		searchBufs.Put(g.bufs)
	}
	g.bufs, g.chol, g.alpha = nil, nil, nil
}

// adopt installs the hyperparameters and factorization of a search clone
// (which shares g's training data) without refactoring: the two swap factor
// storage, so releasing the clone afterwards recycles what g held before.
// The hyperparameters pass through log space (Params, SetParams), so g's
// can differ from the clone's in the last bit; the pinned session traces
// were recorded with that round trip.
func (g *GP) adopt(c *GP) {
	g.kernel.SetParams(c.kernel.Params())
	g.NoiseVariance = c.NoiseVariance
	g.bufs, c.bufs = c.bufs, g.bufs
	g.chol, g.alpha = &g.bufs.chol, c.alpha
	g.factorParams = append(g.factorParams[:0], c.factorParams...)
	g.factorNoise = c.factorNoise
	if c.factorW == nil {
		g.factorW = nil
	} else {
		g.factorW = append(g.factorW[:0], c.factorW...)
	}
}

func mean(y []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range y {
		s += v
	}
	return s / float64(len(y))
}
