package meta

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// bruteRankingLoss is the original O(n²) pairwise definition of Eq. 9, kept
// as the reference the merge-sort implementation must reproduce exactly.
func bruteRankingLoss(pred, truth []float64) int {
	n := len(pred)
	loss := 0
	for j := 0; j < n; j++ {
		for k := 0; k < n; k++ {
			if (pred[j] <= pred[k]) != (truth[j] <= truth[k]) {
				loss++
			}
		}
	}
	return loss
}

// refRankingLoss is the float merge-sort evaluation RankEvaluator.Loss used
// before it ranked by integer keys, kept as the reference the keyed loss must
// reproduce on every input, NaN included.
func refRankingLoss(pred, truth []float64) int {
	n := len(truth)
	if n < 2 {
		return 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return truth[order[i]] < truth[order[j]] })
	a := make([]float64, n)
	for i, idx := range order {
		a[i] = pred[idx]
	}
	equalPairs := func(s []float64) int {
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
	tiesTruth, tiesBoth := 0, 0
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && truth[order[hi]] == truth[order[lo]] {
			hi++
		}
		if m := hi - lo; m > 1 {
			tiesTruth += m * (m - 1) / 2
			seg := a[lo:hi]
			for i := 1; i < len(seg); i++ {
				v, j := seg[i], i-1
				for j >= 0 && seg[j] > v {
					seg[j+1] = seg[j]
					j--
				}
				seg[j+1] = v
			}
			tiesBoth += equalPairs(seg)
		}
		lo = hi
	}
	inv := 0
	buf := make([]float64, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid, hi := lo+width, min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if a[j] < a[i] {
					inv += mid - i
					buf[k] = a[j]
					j++
				} else {
					buf[k] = a[i]
					i++
				}
				k++
			}
			copy(buf[k:], a[i:mid])
			copy(buf[k+mid-i:hi], a[j:hi])
			copy(a[lo:hi], buf[lo:hi])
		}
	}
	return 2*inv + equalPairs(a) + tiesTruth - 2*tiesBoth
}

// Property: the evaluator's loss equals the O(n²) pairwise scan on random
// inputs with deliberately injected ties on both sides.
func TestQuickRankingLossMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(40)
		pred := make([]float64, n)
		truth := make([]float64, n)
		for i := range pred {
			// Draw from small integer grids so ties are common.
			pred[i] = float64(r.Intn(6))
			truth[i] = float64(r.Intn(6))
		}
		if RankingLoss(pred, truth) != bruteRankingLoss(pred, truth) {
			return false
		}
		// Continuous (tie-free) draws too.
		for i := range pred {
			pred[i] = r.NormFloat64()
			truth[i] = r.NormFloat64()
		}
		return RankingLoss(pred, truth) == bruteRankingLoss(pred, truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRankEvaluatorReuseAndClone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	truth := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	e := NewRankEvaluator(truth)
	c := e.Clone()
	for rep := 0; rep < 50; rep++ {
		pred := make([]float64, len(truth))
		for i := range pred {
			pred[i] = float64(r.Intn(5))
		}
		want := bruteRankingLoss(pred, truth)
		if got := e.Loss(pred); got != want {
			t.Fatalf("rep %d: evaluator loss %d want %d", rep, got, want)
		}
		if got := c.Loss(pred); got != want {
			t.Fatalf("rep %d: cloned evaluator loss %d want %d", rep, got, want)
		}
	}
}

func TestRankEvaluatorDegenerate(t *testing.T) {
	if got := NewRankEvaluator(nil).Loss(nil); got != 0 {
		t.Fatalf("empty loss %d", got)
	}
	if got := NewRankEvaluator([]float64{7}).Loss([]float64{1}); got != 0 {
		t.Fatalf("singleton loss %d", got)
	}
	// All-tied truth vs strictly ordered pred: every unordered pair is tied
	// on exactly one side -> n(n-1)/2 misranked ordered pairs.
	if got := RankingLoss([]float64{1, 2, 3, 4}, []float64{5, 5, 5, 5}); got != 6 {
		t.Fatalf("tied-truth loss %d want 6", got)
	}
	// A NaN prediction keeps the float merge's value, which is not the
	// pairwise sum's (RankEvaluator.Loss).
	pred, truth := []float64{0, math.NaN()}, []float64{0, 1}
	if got, brute := RankingLoss(pred, truth), bruteRankingLoss(pred, truth); got != 0 || brute != 2 {
		t.Fatalf("NaN loss %d, pairwise %d; documented as 0 and 2", got, brute)
	}
}

// mergeFrom is the n from which Loss merges even where mat's vector pair
// counter runs: mat's pairsCrossover, held to it by TestMergeFromIsCrossover.
const mergeFrom = 700

func TestMergeFromIsCrossover(t *testing.T) {
	if !mat.CountPairsPays(2) {
		t.Skip("no vector pair counter: Loss always merges")
	}
	if !mat.CountPairsPays(mergeFrom-1) || mat.CountPairsPays(mergeFrom) {
		t.Fatalf("mat's crossover is not %d", mergeFrom)
	}
}

// TestRankLossAllocatesNothing holds Loss to zero allocations in steady
// state on each of its paths: pair counting (n = 80, where the vector
// kernel runs), the keyed merge (n at the crossover, and every n without the
// kernel) and the float merge a NaN selects.
func TestRankLossAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{80, mergeFrom} {
		truth := make([]float64, n)
		pred := make([]float64, n)
		for i := range truth {
			truth[i] = float64(r.Intn(n / 2)) // truth-tie groups
			pred[i] = r.NormFloat64()
		}
		withNaN := append([]float64(nil), pred...)
		withNaN[n/3] = math.NaN()
		e := NewRankEvaluator(truth).Clone()
		for _, p := range [][]float64{pred, withNaN} {
			e.Loss(p) // the merges allocate their scratch on first use
			if allocs := testing.AllocsPerRun(20, func() { e.Loss(p) }); allocs != 0 {
				t.Fatalf("n=%d nan=%v: Loss allocates %.1f objects per call", n, hasNaN(p), allocs)
			}
		}
	}
}

// TestDynamicWeightsDeterministicAcrossGOMAXPROCS checks the meta-level
// fan-out contract: identical weights at any parallelism for a fixed seed.
func TestDynamicWeightsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	targetHist := synthHistory(12, 0.3, 10, 5, 1)
	similar := mustLearner(t, "similar", nil, synthHistory(25, 0.3, 500, 300, 2), 2)
	dissimilar := mustLearner(t, "dissimilar", nil, synthHistory(25, 0.9, 10, 5, 3), 3)
	target := mustLearner(t, "target", nil, targetHist, 4)

	run := func(procs int) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		r := rand.New(rand.NewSource(42))
		return DynamicWeightsOpts([]*BaseLearner{similar, dissimilar}, target,
			DynamicOptions{Samples: 100, DilutionGuard: true}, r)
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights differ across GOMAXPROCS: %v vs %v", a, b)
		}
	}
}

// rankPalette holds the values FuzzRankingLoss's palette mode draws from:
// ties, both zeros, both infinities, NaN and neighbours one ulp apart.
var rankPalette = []float64{
	math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0, 5e-324,
	0.5, math.Nextafter(0.5, 1), 1, math.MaxFloat64, math.Inf(1), math.NaN(),
}

// decodeRankInput splits fuzz bytes into equal-length pred and truth
// vectors: one palette value per byte, or in raw mode one float64 per eight
// bytes, bit pattern as given.
func decodeRankInput(data []byte, palette bool) (pred, truth []float64) {
	var v []float64
	if palette {
		for _, b := range data {
			v = append(v, rankPalette[int(b)%len(rankPalette)])
		}
	} else {
		for ; len(data) >= 8; data = data[8:] {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
	}
	n := len(v) / 2
	return v[:n], v[n : 2*n]
}

func hasNaN(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// FuzzRankingLoss holds the evaluator's loss — pair counting below the
// crossover, the keyed merge from it on, the float merge on a NaN — to
// refRankingLoss on any input, through a fresh evaluator, a reused one and a
// clone, and, where neither vector holds a NaN, to the pairwise definition
// of Eq. 9 as well. The seeds cover every length mod 4 (the counter's
// padding) on both sides of the crossover, and truth-tie groups of 2 to 5.
func FuzzRankingLoss(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for m := 2; m <= 5; m++ {
		for _, n := range []int{28, 29, 30, 31, mergeFrom - 2, mergeFrom - 1, mergeFrom, mergeFrom + 1} {
			// Truth in shuffled groups of m equal values, predictions over
			// the palette without its NaN.
			raw := make([]byte, 16*n)
			for i, j := range r.Perm(n) {
				pred := rankPalette[r.Intn(len(rankPalette)-1)]
				binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(pred))
				binary.LittleEndian.PutUint64(raw[8*(n+i):], math.Float64bits(float64(j/m)))
			}
			f.Add(raw, false)
		}
	}
	for _, n := range []int{0, 1, 2, 3, 8, 30, 80, 192, 300} {
		ties := make([]byte, 2*n)
		for i := range ties {
			ties[i] = byte(r.Intn(4) + 3) // -0, 0, 5e-324, 0.5
		}
		f.Add(ties, true)
		all := make([]byte, 2*n)
		for i := range all {
			all[i] = byte(r.Intn(len(rankPalette)))
		}
		f.Add(all, true)
		raw := make([]byte, 16*n)
		for i := 0; i < 2*n; i++ {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(r.NormFloat64()))
		}
		f.Add(raw, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, palette bool) {
		pred, truth := decodeRankInput(data, palette)
		want := refRankingLoss(pred, truth)
		e := NewRankEvaluator(truth)
		for _, ev := range []*RankEvaluator{e, e, e.Clone()} {
			if got := ev.Loss(pred); got != want {
				t.Fatalf("loss %d, float merge %d\npred %v\ntruth %v", got, want, pred, truth)
			}
		}
		if !hasNaN(pred) && !hasNaN(truth) {
			if brute := bruteRankingLoss(pred, truth); want != brute {
				t.Fatalf("loss %d, pairwise %d\npred %v\ntruth %v", want, brute, pred, truth)
			}
		}
	})
}
