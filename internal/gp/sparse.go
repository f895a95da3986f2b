package gp

import (
	"math"
	"sort"
)

// SparseConfig configures subset-of-data (SoD) sparse inference on a GP
// (SetSparse). The zero value disables it: every Fit stays exact.
//
// With Threshold > 0, a Fit whose history exceeds Threshold observations
// conditions on m = MaxAnchors anchor observations chosen by deterministic
// farthest-point selection (SelectAnchors) instead of the full history,
// capping the cubic factorization (and the hyperparameter search built on
// it) at O(m³) per candidate. Fits at or below the threshold run the exact
// path bit for bit — sparse inference is invisible until it activates.
//
// Between selections the anchor set is append-only: each new observation
// joins the anchors through the exact rank-1 incremental Cholesky, so the
// most recent evidence is always conditioned on. A full re-selection (an
// O(n·m) scan plus one O(m³) refactor) is amortized to every ReselectEvery
// appends, and forced early whenever the incremental invariants break —
// a kernel/noise change that was not adopted from the factor's own search,
// an observation-weight decay (forgetting), or a non-extending history: the
// same rule that gates exact appends (GP.Fit).
type SparseConfig struct {
	// Threshold activates sparse inference once the fitted history has more
	// than this many observations; <= 0 disables sparse inference entirely.
	Threshold int
	// MaxAnchors is the anchor-subset size m at (re-)selection time; between
	// re-selections appends grow the working set up to m + ReselectEvery.
	// <= 0 defaults to Threshold.
	MaxAnchors int
	// ReselectEvery is the append budget between full anchor re-selections.
	// <= 0 defaults to 64.
	ReselectEvery int
}

// DefaultSparseConfig returns the paper-scale sparse settings: activate
// past 256 observations, keep 256 anchors, re-select every 64 appends.
func DefaultSparseConfig() SparseConfig {
	return SparseConfig{Threshold: 256, MaxAnchors: 256, ReselectEvery: 64}
}

// withDefaults normalizes a sparse configuration: a disabled config is the
// zero value, an enabled one has its optional fields defaulted.
func (c SparseConfig) withDefaults() SparseConfig {
	if c.Threshold <= 0 {
		return SparseConfig{}
	}
	if c.MaxAnchors <= 0 {
		c.MaxAnchors = c.Threshold
	}
	if c.ReselectEvery <= 0 {
		c.ReselectEvery = 64
	}
	return c
}

// anchorSqDist is the anchor-selection metric: squared Euclidean distance
// over the leading min(len(a), len(b)) coordinates of the raw (unscaled)
// inputs. It deliberately ignores kernel hyperparameters, so one selection
// pass serves every candidate of a hyperparameter search and every
// co-trained metric GP on the same theta track. A non-finite accumulation
// (NaN coordinates, overflowing magnitudes) collapses to +Inf, giving every
// input — however malformed — one deterministic place in the total order.
func anchorSqDist(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for d := 0; d < n; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	if math.IsNaN(s) {
		return math.Inf(1)
	}
	return s
}

// SelectAnchors returns the indices of m anchor observations chosen by
// deterministic farthest-point selection over x: the first anchor is the
// point farthest from the input centroid, each subsequent anchor maximizes
// the minimum distance to the anchors chosen so far, and every distance tie
// resolves to the lowest index (total tie order, like meta.CorpusIndex's
// ordering) — so the result is a pure function of the inputs, independent
// of GOMAXPROCS, map iteration or RNG state. Duplicate points (min distance
// zero) and NaN coordinates (distance +Inf, see anchorSqDist) are handled
// by the same total order. m >= len(x) selects everything. The returned
// indices are sorted ascending, so the anchor subset reads as a
// sub-history in observation order.
func SelectAnchors(x [][]float64, m int) []int {
	n := len(x)
	if m <= 0 || n == 0 {
		return []int{}
	}
	if m >= n {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	dim := len(x[0])
	cent := make([]float64, dim)
	for _, xi := range x {
		for d := 0; d < dim && d < len(xi); d++ {
			cent[d] += xi[d]
		}
	}
	for d := range cent {
		cent[d] /= float64(n)
	}
	first, bestD := 0, -1.0
	for i, xi := range x {
		if d := anchorSqDist(xi, cent); d > bestD {
			first, bestD = i, d
		}
	}
	sel := make([]int, 0, m)
	chosen := make([]bool, n)
	sel = append(sel, first)
	chosen[first] = true
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = anchorSqDist(x[i], x[first])
	}
	for len(sel) < m {
		next, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			if minD[i] > bestD {
				next, bestD = i, minD[i]
			}
		}
		sel = append(sel, next)
		chosen[next] = true
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			if d := anchorSqDist(x[i], x[next]); d < minD[i] {
				minD[i] = d
			}
		}
	}
	sort.Ints(sel)
	return sel
}

// SparseStats reports a GP's sparse-inference state after a Fit.
type SparseStats struct {
	// Active reports whether the current fit conditions on an anchor subset
	// rather than the full history.
	Active bool
	// Anchors is the current anchor count m (0 when exact).
	Anchors int
	// Reselects counts full anchor-selection passes over the GP's lifetime.
	Reselects int
}

// SetSparse configures subset-of-data sparse inference for subsequent Fit
// calls; the zero SparseConfig disables it. An anchor view selected under
// the old configuration is dropped, and its factor with it — a changed view
// has no factor — so the next Fit either re-selects under the new
// configuration or refactors exactly. Call SetSparse before fitting (or
// between fits), not between a Fit and its Predicts.
func (g *GP) SetSparse(cfg SparseConfig) {
	g.sparse = cfg.withDefaults()
	if g.view == nil {
		return
	}
	g.view, g.tx = nil, g.x
	g.transposeView()
	g.appendsSinceSelect = 0
	g.dropFactor()
}

// SparseStats returns the sparse-inference state of the last Fit.
func (g *GP) SparseStats() SparseStats {
	return SparseStats{
		Active:    g.view != nil,
		Anchors:   len(g.view),
		Reselects: g.reselects,
	}
}

// selectAnchors replaces the view with one full farthest-point selection
// pass over the current inputs, resetting the append budget. The gathered
// rows reuse the previous anchor view's backing array; an identity view's
// tx is the caller's x and is never written through.
func (g *GP) selectAnchors() {
	tx := g.tx[:0]
	if g.view == nil {
		tx = nil
	}
	g.view = SelectAnchors(g.x, g.sparse.MaxAnchors)
	for _, i := range g.view {
		tx = append(tx, g.x[i])
	}
	g.tx = tx
	g.appendsSinceSelect = 0
	g.reselects++
}
