package meta

import (
	"math"
	"sort"

	"repro/internal/mat"
)

// RankingLoss counts misranked pairs (Eq. 9) between predictions and ground
// truths: Σ_j Σ_k 1(pred_j ≤ pred_k) XOR 1(true_j ≤ true_k), over all n²
// ordered pairs, without visiting the n² pairs one by one (see
// RankEvaluator). For repeated evaluations against the same ground truth
// (the posterior-sampling loop of DynamicWeightsOpts) build a RankEvaluator
// once instead.
func RankingLoss(pred, truth []float64) int {
	return NewRankEvaluator(truth).Loss(pred)
}

// RankEvaluator precomputes the truth-side structure of the Eq. 9 ranking
// loss — the sort order of the ground truths and their tie groups — so each
// evaluation against a fresh prediction vector only has to rank the
// predictions in that order: by counting pairs with mat.CountPairs's vector
// kernel while n is below its crossover, by an O(n log n) merge sort
// otherwise.
//
// Decomposition: writing D for the number of unordered pairs ranked in
// strictly opposite order, T_p and T_t for the pairs tied in pred and in
// truth, and T_b for those tied on both sides, the pairwise double sum
// equals
//
//	loss = 2·D + T_p + T_t − 2·T_b
//
// (a strictly discordant pair misranks both ordered directions; a pair tied
// on exactly one side misranks one direction; pairs tied on both sides, and
// the j==k diagonal, misrank none).
type RankEvaluator struct {
	// Immutable after construction (safe to share across Clone instances):
	n         int
	order     []int    // indices sorted by ascending truth
	groups    [][2]int // [start,end) runs of equal truth in order, len >= 2 only
	tiesTruth int      // Σ over groups of m(m−1)/2
	// Per-instance scratch. a holds the predictions in ascending-truth
	// order, NaN-padded to a multiple of 4 for mat.CountPairs; the merge's
	// buffers are allocated by the first merge that needs them.
	a         []float64
	key, kbuf []int64
	buf       []float64
}

// NewRankEvaluator builds the truth-side structure for repeated Loss calls.
func NewRankEvaluator(truth []float64) *RankEvaluator {
	n := len(truth)
	e := &RankEvaluator{n: n, order: make([]int, n)}
	e.scratch()
	for i := range e.order {
		e.order[i] = i
	}
	sort.SliceStable(e.order, func(i, j int) bool {
		return truth[e.order[i]] < truth[e.order[j]]
	})
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && truth[e.order[hi]] == truth[e.order[lo]] {
			hi++
		}
		if m := hi - lo; m > 1 {
			e.groups = append(e.groups, [2]int{lo, hi})
			e.tiesTruth += m * (m - 1) / 2
		}
		lo = hi
	}
	return e
}

// scratch gives e its own per-instance buffers.
func (e *RankEvaluator) scratch() {
	e.a = make([]float64, (e.n+3)&^3)
	for i := e.n; i < len(e.a); i++ {
		e.a[i] = math.NaN()
	}
	e.key, e.kbuf, e.buf = nil, nil, nil
}

// Clone returns an evaluator sharing the (read-only) truth structure with
// its own scratch buffers, so parallel workers can evaluate concurrently.
func (e *RankEvaluator) Clone() *RankEvaluator {
	c := *e
	c.scratch()
	return &c
}

// Loss returns the Eq. 9 pairwise ranking loss of pred against the
// evaluator's ground truth. It allocates nothing, except a merge's scratch
// the first time that merge runs.
//
// Below mat.CountPairsPays's crossover the decomposition's pair counts are
// taken directly: CountPairs over the predictions in truth order gives the
// pairs ranked opposite to truth or tied in pred, and the truth-tie groups
// (rare and small for continuous metrics) are counted apart. Without the
// vector kernel, or from the crossover on, the predictions are ranked by
// order-preserving integer keys (rankKey) in a branch-free merge sort. Both
// are exact integer counts of the same pairs, so they return the same loss.
//
// A prediction vector holding a NaN is ranked by the float merge instead —
// the same merge on the floats themselves, whose comparisons with NaN are
// all false — so the loss of such a vector is what it always was. That
// value is not Eq. 9's: the pairwise sum reads NaN ≤ x as false in both
// directions, even against itself, while a merge sort cannot place an
// element that compares with nothing (pred = {0, NaN} against truth = {0, 1}
// scores 2 pairwise, one of them the NaN's diagonal pair, and 0 here).
// Posterior samples are finite, so a session never takes this path.
func (e *RankEvaluator) Loss(pred []float64) int {
	if len(pred) != e.n {
		panic("meta: ranking loss length mismatch")
	}
	if e.n < 2 {
		return 0
	}
	a := e.a[:e.n]
	nan := false
	for i, idx := range e.order {
		x := pred[idx]
		if math.IsNaN(x) {
			nan = true
		}
		a[i] = x
	}
	switch {
	case nan:
		if e.buf == nil {
			e.buf = make([]float64, e.n)
		}
		return rankLoss(e, a, e.buf)
	case mat.CountPairsPays(e.n):
		return e.countLoss()
	}
	if e.key == nil {
		e.key, e.kbuf = make([]int64, e.n), make([]int64, e.n)
	}
	for i, x := range a {
		e.key[i] = rankKey(x)
	}
	return rankLoss(e, e.key, e.kbuf)
}

// countLoss evaluates the decomposition from pair counts over e.a: gt pairs
// ranked in pred against the truth order and eq pairs tied in pred, less the
// pairs of each inside the truth-tie groups, which are not discordant and
// are tied on both sides.
func (e *RankEvaluator) countLoss() int {
	gt, eq := mat.CountPairs(e.a)
	for _, g := range e.groups {
		gtTies, eqTies := mat.CountPairs(e.a[g[0]:g[1]])
		gt -= gtTies
		eq -= 2 * eqTies
	}
	return 2*gt + eq + e.tiesTruth
}

// rankKey maps a non-NaN x to an int64 whose signed order is x's order: the
// float's bits with every bit but the sign flipped on negatives. Adding +0
// first folds −0 into +0, so the two zeros, equal as floats, share a key.
func rankKey(x float64) int64 {
	k := int64(math.Float64bits(x + 0))
	return k ^ int64(uint64(k>>63)>>1)
}

// rankLoss evaluates the decomposition over a, the predictions (or their
// keys) in ascending-truth order; a and buf, of one length, are overwritten.
func rankLoss[T int64 | float64](e *RankEvaluator, a, buf []T) int {
	// Within each truth-tie group, order predictions ascending so tied-truth
	// pairs contribute no inversions; count pairs tied on both sides while
	// at it. Groups are rare and small for continuous metrics.
	tiesBoth := 0
	for _, g := range e.groups {
		seg := a[g[0]:g[1]]
		insertionSort(seg)
		tiesBoth += countEqualPairs(seg)
	}
	inv, sorted := countInversions(a, buf)
	return 2*inv + countEqualPairs(sorted) + e.tiesTruth - 2*tiesBoth
}

// insertionSort sorts a small slice ascending in place.
func insertionSort[T int64 | float64](s []T) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// countEqualPairs returns Σ m(m−1)/2 over runs of equal values in the
// sorted slice s.
func countEqualPairs[T int64 | float64](s []T) int {
	ties, run := 0, 1
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
			continue
		}
		ties += run * (run - 1) / 2
		run = 1
	}
	return ties + run*(run-1)/2
}

// countInversions counts pairs i < j with a[i] > a[j] (strict) by bottom-up
// merge sort, ping-ponging between a and buf (which must have len(a)
// capacity), and returns the count with the sorted values — a or buf.
func countInversions[T int64 | float64](a, buf []T) (int, []T) {
	n := len(a)
	src, dst := a, buf[:n]
	inv := 0
	// Runs of one merge pairwise in place: swap a pair iff it is inverted.
	for i := 1; i < n; i += 2 {
		x, y := src[i-1], src[i]
		t, lo, hi := 0, x, y
		if y < x {
			t, lo, hi = 1, y, x
		}
		src[i-1], src[i] = lo, hi
		inv += t
	}
	for width := 2; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			inv += merge(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	return inv, src
}

// merge merges the sorted runs l and r into out (len(l)+len(r)) and returns
// how many (l, r) pairs are inverted. Each step is branch-free: whether the
// right head goes first (it is strictly smaller, so equal values are not
// inversions) selects the output value, advances one of the two cursors and
// gates the inversion count, all through arithmetic — random predictions
// would mispredict a branch on that comparison about half the time.
func merge[T int64 | float64](out, l, r []T) int {
	inv, i, j, k := 0, 0, 0, 0
	for i < len(l) && j < len(r) {
		x, y := l[i], r[j]
		t, v := 0, x
		if y < x {
			t, v = 1, y
		}
		out[k] = v
		inv += (len(l) - i) & -t
		i += 1 - t
		j += t
		k++
	}
	for ; i < len(l); i, k = i+1, k+1 {
		out[k] = l[i]
	}
	for ; j < len(r); j, k = j+1, k+1 {
		out[k] = r[j]
	}
	return inv
}
