package gp

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mat"
)

// evalOnly hides a kernel's concrete type, so the GP fills its kernel matrix
// entry by entry through Eval — the reference the vector fill must match.
type evalOnly struct{ Kernel }

// TestVectorFillMatchesEvalLoop holds the vector kernel code to the Eval
// loops it replaced, against a reference GP whose kernel hides its type and
// so is filled and read entry by entry. A history grows one point at a time
// to 150 — view sizes on both sides of the vector width and of the factor's
// panel width — without and with observation weights and under a sparse
// view; at every size refactor's filled upper triangle must match entry by
// entry, and everything built on it must too: the factor's log-determinant
// and weights through the log marginal likelihood, and the point-wise
// posterior, which reads the GP's transposed view through the vector kernel
// row, from Predict and from PredictMean. The growth crosses every path that
// changes the view or the factor it is read with: an append, a rebuild, a
// search's adopt, AdoptHyperparamsFrom and SetSparse. Under -tags purego the
// vector kernels are compiled out and the same table checks the scalar
// fallbacks.
func TestVectorFillMatchesEvalLoop(t *testing.T) {
	const maxN, dim = 150, 6
	x, y := randPoints(maxN, dim, 5)
	probe, _ := randPoints(6, dim, 77)
	probe = append(probe, x[0], x[maxN-1]) // training points: zero distance
	w := make([]float64, maxN)
	r := rand.New(rand.NewSource(11))
	for i := range w {
		w[i] = 0.2 + 0.8*r.Float64()
	}
	for _, mode := range []string{"plain", "weighted", "sparse", "sparse weighted"} {
		sparse := SparseConfig{}
		if mode == "sparse" || mode == "sparse weighted" {
			sparse = SparseConfig{Threshold: 80, MaxAnchors: 66, ReselectEvery: 5}
		}
		weighted := mode == "weighted" || mode == "sparse weighted"
		g, ref := New(NewMatern52(1.7, 0.4), 0.013), New(evalOnly{NewMatern52(1.7, 0.4)}, 0.013)
		donor := New(NewMatern52(0.8, 0.7), 0.05)
		both := []*GP{g, ref}
		for _, h := range both {
			h.SetSparse(sparse)
		}
		fit := func(n int, gps ...*GP) {
			t.Helper()
			for _, h := range gps {
				if weighted {
					h.SetObservationWeights(w[:n])
				}
				if err := h.Fit(x[:n], y[:n]); err != nil {
					t.Fatalf("%s n=%d: %v", mode, n, err)
				}
			}
		}
		check := func(n int, path string) {
			t.Helper()
			m := g.TrainN()
			if _, cols := g.xt.Dims(); cols != m || ref.TrainN() != m || g.chol == nil {
				t.Fatalf("%s n=%d after %s: view of %d points (reference %d, transposed %d)", mode, n, path, m, ref.TrainN(), cols)
			}
			got, want := fillAll(g), fillAll(ref)
			for i := 0; i < m; i++ {
				for j := i; j < m; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("%s n=%d after %s: K[%d][%d] = %x, Eval loop %x", mode, n, path, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
			if a, b := g.LogMarginalLikelihood(), ref.LogMarginalLikelihood(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s n=%d after %s: LML %x, Eval loop %x", mode, n, path, a, b)
			}
			for _, p := range probe {
				mu, v := g.Predict(p)
				rmu, rv := ref.Predict(p)
				if math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(v) != math.Float64bits(rv) {
					t.Fatalf("%s n=%d after %s: posterior (%x, %x), Eval loop (%x, %x)", mode, n, path, mu, v, rmu, rv)
				}
				for _, h := range both {
					if mean := h.PredictMean(p); math.Float64bits(mean) != math.Float64bits(rmu) {
						t.Fatalf("%s n=%d after %s: mean-only %x, Eval loop %x", mode, n, path, mean, rmu)
					}
				}
			}
		}
		for n := 1; n <= maxN; n++ {
			fit(n, g, ref, donor)
			check(n, "fit")
			if n%7 == 3 {
				for _, h := range both {
					FitHyperparams(h, FitConfig{Candidates: 4}, rand.New(rand.NewSource(int64(n))))
				}
				check(n, "search")
			}
			if n%11 == 5 {
				for _, h := range both {
					if err := h.AdoptHyperparamsFrom(donor); err != nil {
						t.Fatalf("%s n=%d: %v", mode, n, err)
					}
				}
				check(n, "AdoptHyperparamsFrom")
			}
			if n == 100 || n == 120 {
				// Toggle sparse inference: an anchored view goes back to the
				// identity, an exact one is anchored at the next fit.
				next := SparseConfig{Threshold: 90, MaxAnchors: 72}
				if g.SparseStats().Active {
					next = SparseConfig{}
				}
				for _, h := range both {
					h.SetSparse(next)
				}
				fit(n, g, ref)
				check(n, "SetSparse")
			}
		}
		if g.refactors >= maxN {
			t.Fatalf("%s: %d rebuilds over %d fits: the append path never ran", mode, g.refactors, maxN)
		}
	}
}

// fillAll fills a fresh matrix with every panel refactor would fill.
func fillAll(g *GP) *mat.Dense {
	m := g.TrainN()
	ks := &kernelScratch{}
	ks.resize(m)
	for i0 := 0; i0 < m; i0 += pruneStride {
		g.fillKernel(ks, i0, min(pruneStride, m-i0))
	}
	return &ks.k
}

// TestSearchWhereNothingFactors drives FitHyperparams down its last branch:
// a NaN coordinate in the final input makes the last pivot of every kernel
// matrix NaN, so the incumbent, every candidate and the fallback itself fail
// to factor. The GP must come out on the safe prior, unfitted, predicting
// that prior — and the failed clones' storage must have gone back to the
// pool, or a second such search would allocate it all again.
func TestSearchWhereNothingFactors(t *testing.T) {
	const n, candidates = 120, 32
	x, y := randPoints(n, 5, 31)
	x[n-1][2] = math.NaN()
	g := New(NewMatern52(2, 0.3), 0.02)
	if err := g.Fit(x, y); err == nil {
		t.Fatal("a NaN input factored")
	}
	search := func(seed int64) float64 {
		return FitHyperparams(g, FitConfig{Candidates: candidates}, rand.New(rand.NewSource(seed)))
	}
	if lml := search(1); !math.IsInf(lml, -1) {
		t.Fatalf("search over an unfactorable history returned %v", lml)
	}
	want := defaultParams(2)
	if p := g.kernel.Params(); p[0] != want[0] || p[1] != want[1] || g.NoiseVariance != 0.1 {
		t.Fatalf("not on the safe prior: params %v noise %v", p, g.NoiseVariance)
	}
	if g.chol != nil {
		t.Fatal("a factorization survived")
	}
	if mu, v := g.Predict(x[0]); mu != 0 || v != 1+0.1 {
		t.Fatalf("prediction (%v, %v) is not the safe prior's", mu, v)
	}
	if raceEnabled {
		return // sync.Pool drops Puts under the race detector
	}
	// One factor is n(n+1)/2 floats; were the clones' lost, a search would
	// allocate candidates of them.
	got, one := searchBytes(t, search), uint64(n*(n+1)/2*8)
	t.Logf("a search where every candidate fails allocates %d bytes", got)
	if got > 4*one {
		t.Fatalf("a search where every candidate fails allocates %d bytes: more than four factors of %d", got, one)
	}
}

// searchBytes returns the bytes one steady-state search allocates: the least
// of a few runs after a warm-up, with the collector off so the pools keep
// what they were given.
func searchBytes(t *testing.T, search func(seed int64) float64) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	search(2)
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for seed := int64(3); seed < 6; seed++ {
		runtime.ReadMemStats(&before)
		search(seed)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSearchAllocatesPerCandidateNotPerMatrix pins the pooled search: at
// n = 200 a 32-candidate search in steady state allocates a handful of small
// objects per candidate — the clone, its kernel, its parameter vectors — and
// no kernel matrix or factor, which at this size are 320 KB and 160 KB each.
func TestSearchAllocatesPerCandidateNotPerMatrix(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n, candidates = 200, 32
	x, y := randPoints(n, 8, 41)
	g := New(NewMatern52(1, 0.5), 0.01)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	search := func(s int64) float64 {
		return FitHyperparams(g, FitConfig{Candidates: candidates}, rand.New(rand.NewSource(s)))
	}
	got := searchBytes(t, search)
	t.Logf("steady-state search: %d bytes", got)
	if got > 64<<10 {
		t.Fatalf("a steady-state search allocates %d bytes, want under 64 KB (one factor is %d)", got, n*(n+1)/2*8)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seed := int64(100)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		search(seed)
	})
	if allocs > 16*candidates {
		t.Fatalf("a steady-state search makes %.0f allocations, want at most %d per candidate", allocs, 16)
	}
	t.Logf("steady-state search: %.0f allocations", allocs)
}
