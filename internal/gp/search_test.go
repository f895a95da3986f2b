package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

// exhaustiveFitHyperparams is FitHyperparams without pruning: every candidate
// is filled and factored in full and scored, then reduced in index order —
// the reference arm the pruned search must reproduce bit for bit.
func exhaustiveFitHyperparams(g *GP, cfg FitConfig, rng *rand.Rand) float64 {
	if g.N() == 0 {
		return math.Inf(-1)
	}
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	nParams := len(g.kernel.Params())
	params := make([][]float64, cfg.Candidates)
	noise := make([]float64, cfg.Candidates)
	for c := range params {
		p := make([]float64, nParams)
		p[0] = math.Log(logU(varianceMin, varianceMax))
		for i := 1; i < nParams; i++ {
			p[i] = math.Log(logU(lengthScaleMin, lengthScaleMax))
		}
		params[c], noise[c] = p, logU(noiseMin, noiseMax)
	}
	lml := make([]float64, cfg.Candidates)
	clones := make([]*GP, cfg.Candidates)
	par.ForEach(cfg.Candidates, func(i int) {
		cg := g.cloneForSearch()
		clones[i] = cg
		cg.kernel.SetParams(params[i])
		cg.NoiseVariance = noise[i]
		if err := cg.refactor(math.Inf(-1)); err != nil {
			lml[i] = math.Inf(-1)
			return
		}
		lml[i] = cg.LogMarginalLikelihood()
	})
	bestLML := g.LogMarginalLikelihood()
	bestIdx := -1
	for i, v := range lml {
		if clones[i].chol != nil && v > bestLML {
			bestLML, bestIdx = v, i
		}
	}
	if bestIdx >= 0 {
		g.adopt(clones[bestIdx])
	}
	for _, cg := range clones {
		cg.releaseBufs()
	}
	if g.chol != nil {
		return bestLML
	}
	g.kernel.SetParams(defaultParams(nParams))
	g.NoiseVariance = 0.1
	_ = g.refactor(math.Inf(-1))
	return g.LogMarginalLikelihood()
}

// pruneCounter is a span sink that tallies the search's candidates and the
// ones it abandoned.
type pruneCounter struct {
	mu            sync.Mutex
	cands, pruned int
}

func (pc *pruneCounter) Emit(e obs.Event) {
	if e.Name != "gp.fit_hyperparams" {
		return
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.cands += e.Attrs["candidates"].(int)
	pc.pruned += e.Attrs["pruned"].(int)
}

// searchPair builds the same GP twice — one for the pruned search, one for
// the reference — in one of the shapes the search meets: plain, under
// forgetting weights down to 0.05, under a sparse anchor view, over
// duplicate inputs (a quantized knob space), with the incumbent's noise at
// its lower bound, and with a NaN input so that nothing factors.
func searchPair(t testing.TB, mode string, n int, seed int64) (g, ref *GP) {
	t.Helper()
	const dim = 5
	x, y := randPoints(n, dim, seed)
	noise := 0.01
	switch mode {
	case "duplicates":
		for i := range x {
			for d := range x[i] {
				x[i][d] = math.Round(x[i][d]*2) / 2
			}
		}
	case "noise floor":
		noise = noiseMin
	case "nan":
		x[n-1][n%dim] = math.NaN()
	}
	var w []float64
	if mode == "weighted" {
		r := rand.New(rand.NewSource(seed + 1))
		w = make([]float64, n)
		for i := range w {
			w[i] = math.Max(0.05, math.Pow(0.97, float64(n-1-i))*(0.5+0.5*r.Float64()))
		}
	}
	build := func() *GP {
		h := New(NewMatern52(1.3, 0.4), noise)
		if mode == "sparse" {
			h.SetSparse(SparseConfig{Threshold: max(1, n/2), MaxAnchors: max(1, n/3), ReselectEvery: 4})
		}
		if w != nil {
			h.SetObservationWeights(w)
		}
		if err := h.Fit(x, y); err != nil && mode != "nan" {
			t.Fatalf("%s n=%d: %v", mode, n, err)
		}
		return h
	}
	return build(), build()
}

// sameSearchResult reports the first difference between the pruned search's
// GP and the reference's, and between the LMLs they returned: adopted
// hyperparameters and noise, the factor entry by entry, α, the LML.
func sameSearchResult(t testing.TB, what string, g, ref *GP, got, want float64) {
	t.Helper()
	bits := math.Float64bits
	if bits(got) != bits(want) {
		t.Fatalf("%s: search returned LML %v, exhaustive search %v", what, got, want)
	}
	gp, rp := g.kernel.Params(), ref.kernel.Params()
	for i := range rp {
		if bits(gp[i]) != bits(rp[i]) {
			t.Fatalf("%s: adopted params %v, exhaustive search %v", what, gp, rp)
		}
	}
	if bits(g.NoiseVariance) != bits(ref.NoiseVariance) {
		t.Fatalf("%s: adopted noise %v, exhaustive search %v", what, g.NoiseVariance, ref.NoiseVariance)
	}
	if (g.chol == nil) != (ref.chol == nil) {
		t.Fatalf("%s: factored %v, exhaustive search factored %v", what, g.chol != nil, ref.chol != nil)
	}
	if g.chol == nil {
		return
	}
	if g.chol.N() != ref.chol.N() {
		t.Fatalf("%s: factor of %d rows, exhaustive search %d", what, g.chol.N(), ref.chol.N())
	}
	for i := 0; i < g.chol.N(); i++ {
		for j, v := range g.chol.Row(i) {
			if bits(v) != bits(ref.chol.Row(i)[j]) {
				t.Fatalf("%s: L[%d][%d] = %x, exhaustive search %x", what, i, j, v, ref.chol.Row(i)[j])
			}
		}
	}
	for i, a := range g.alpha {
		if bits(a) != bits(ref.alpha[i]) {
			t.Fatalf("%s: alpha[%d] = %x, exhaustive search %x", what, i, a, ref.alpha[i])
		}
	}
	if a, b := g.LogMarginalLikelihood(), ref.LogMarginalLikelihood(); bits(a) != bits(b) {
		t.Fatalf("%s: LML %v, exhaustive search %v", what, a, b)
	}
}

// runSearchPair runs rounds successive searches on the pair — the later ones
// from a strong incumbent, where most candidates are abandoned — and holds
// the pruned one to the exhaustive one after each.
func runSearchPair(t testing.TB, what string, g, ref *GP, candidates, rounds int, seed int64, rec obs.Recorder) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		s := seed + int64(r)
		got := FitHyperparams(g, FitConfig{Candidates: candidates, Recorder: rec}, rand.New(rand.NewSource(s)))
		want := exhaustiveFitHyperparams(ref, FitConfig{Candidates: candidates}, rand.New(rand.NewSource(s)))
		sameSearchResult(t, what, g, ref, got, want)
	}
}

// TestSearchPruningMatchesExhaustive holds the pruned search to the
// exhaustive one at sizes on both sides of the 16-row stride and of a long
// history, in every shape searchPair builds, over full (32) and warm (6)
// searches at two GOMAXPROCS, and checks that the pruning it vouches for
// happens: at n ≥ 63 most candidates must be abandoned.
func TestSearchPruningMatchesExhaustive(t *testing.T) {
	modes := []string{"plain", "weighted", "sparse", "duplicates", "noise floor", "nan"}
	sizes := []int{1, 15, 16, 17, 63, 64, 65, 200}
	if testing.Short() {
		sizes = []int{1, 16, 17, 65, 200}
	}
	var long pruneCounter
	rec := obs.NewRegistry(&long)
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, mode := range modes {
			for _, n := range sizes {
				for _, candidates := range []int{32, 6} {
					g, ref := searchPair(t, mode, n, int64(7*n+candidates))
					var r obs.Recorder
					if n >= 63 && mode != "nan" {
						r = rec
					}
					what := fmt.Sprintf("%s n=%d candidates=%d procs=%d", mode, n, candidates, procs)
					runSearchPair(t, what, g, ref, candidates, 3, int64(n*100+procs), r)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
	t.Logf("n ≥ 63: %d of %d candidates abandoned", long.pruned, long.cands)
	if long.pruned*2 < long.cands {
		t.Fatalf("n ≥ 63: only %d of %d candidates abandoned", long.pruned, long.cands)
	}
}

// TestPruningBoundHolds checks the bound itself, which the parity test can
// only catch when a wrongly abandoned candidate would have won: a candidate
// refactored against its own log marginal likelihood — which it cannot
// strictly beat — must never be abandoned, since its LML is below the bound
// at every stride, and must come out bit for bit as the unbounded refactor
// left it; against a target well above its LML it must be.
func TestPruningBoundHolds(t *testing.T) {
	abandoned := 0
	for _, mode := range []string{"plain", "weighted", "sparse", "duplicates", "noise floor"} {
		for _, n := range []int{17, 40, 65, 200} {
			g, _ := searchPair(t, mode, n, int64(n))
			r := rand.New(rand.NewSource(int64(3 * n)))
			for c := 0; c < 24; c++ {
				cg := g.cloneForSearch()
				p := cg.kernel.Params()
				p[0] = math.Log(varianceMin) + r.Float64()*(math.Log(varianceMax)-math.Log(varianceMin))
				p[1] = math.Log(lengthScaleMin) + r.Float64()*(math.Log(lengthScaleMax)-math.Log(lengthScaleMin))
				cg.kernel.SetParams(p)
				cg.NoiseVariance = math.Exp(math.Log(noiseMin) + r.Float64()*(math.Log(noiseMax)-math.Log(noiseMin)))
				if err := cg.refactor(math.Inf(-1)); err != nil {
					cg.releaseBufs()
					continue
				}
				lml := cg.LogMarginalLikelihood()
				want := append([]float64(nil), cg.alpha...)
				if err := cg.refactor(lml); err != nil {
					t.Fatalf("%s n=%d candidate %d: abandoned against its own LML %v: %v", mode, n, c, lml, err)
				}
				for i, a := range cg.alpha {
					if math.Float64bits(a) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d candidate %d: bounded refactor changed alpha[%d]", mode, n, c, i)
					}
				}
				if err := cg.refactor(lml + 1 + math.Abs(lml)); err == errPruned {
					abandoned++
				}
				cg.releaseBufs()
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no candidate was abandoned against a target far above its LML")
	}
}

// FuzzSearchPruning holds the pruned search to the exhaustive one over fuzzed
// sizes, shapes, incumbent noise and candidate counts.
func FuzzSearchPruning(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(0), 0.01, uint8(32))
	f.Add(int64(2), uint8(17), uint8(1), 0.2, uint8(6))
	f.Add(int64(3), uint8(65), uint8(2), 1e-5, uint8(32))
	f.Add(int64(4), uint8(33), uint8(3), 0.05, uint8(8))
	f.Add(int64(5), uint8(90), uint8(4), 1e-5, uint8(16))
	f.Add(int64(6), uint8(20), uint8(5), 0.01, uint8(4))
	modes := []string{"plain", "weighted", "sparse", "duplicates", "noise floor", "nan"}
	f.Fuzz(func(t *testing.T, seed int64, size, mode uint8, noise float64, candidates uint8) {
		n := 1 + int(size)%120
		m := modes[int(mode)%len(modes)]
		g, ref := searchPair(t, m, n, seed)
		if m != "nan" && noise > 0 && noise < 10 && !math.IsNaN(noise) {
			// A fuzzed incumbent noise: refit both at it.
			for _, h := range []*GP{g, ref} {
				h.NoiseVariance = noise
				if err := h.AdoptHyperparamsFrom(h); err != nil {
					t.Skip(err)
				}
			}
		}
		runSearchPair(t, fmt.Sprintf("%s n=%d", m, n), g, ref, 1+int(candidates)%40, 2, seed, nil)
	})
}
