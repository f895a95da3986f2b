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

// TestVectorFillMatchesEvalLoop holds refactor's vector fill to the Eval
// double loop it replaced, at view sizes on both sides of the vector width
// and of the factor's panel width, without and with observation weights and
// under a sparse view: first the filled upper triangle entry by entry, then
// everything built on it — the factor's log-determinant and weights through
// the log marginal likelihood, and the posterior.
func TestVectorFillMatchesEvalLoop(t *testing.T) {
	probe, _ := randPoints(4, 6, 77)
	for _, n := range []int{1, 2, 7, 8, 9, 17, 64, 65, 150} {
		x, y := randPoints(n, 6, int64(n))
		w := make([]float64, n)
		for i := range w {
			w[i] = 0.2 + 0.8*rand.New(rand.NewSource(int64(i))).Float64()
		}
		for _, mode := range []string{"plain", "weighted", "sparse", "sparse weighted"} {
			sparse := SparseConfig{}
			if mode == "sparse" || mode == "sparse weighted" {
				if n < 9 {
					continue
				}
				sparse = SparseConfig{Threshold: n / 2, MaxAnchors: n/2 + 1, ReselectEvery: 4}
			}
			fit := func(k Kernel) *GP {
				g := New(k, 0.013)
				g.SetSparse(sparse)
				if mode == "weighted" || mode == "sparse weighted" {
					g.SetObservationWeights(w)
				}
				if err := g.Fit(x, y); err != nil {
					t.Fatalf("n=%d %s: %v", n, mode, err)
				}
				return g
			}
			g, ref := fit(NewMatern52(1.7, 0.4)), fit(evalOnly{NewMatern52(1.7, 0.4)})
			m := g.TrainN()
			if (m < n) != (sparse.Threshold > 0) || ref.TrainN() != m {
				t.Fatalf("n=%d %s: view of %d points (reference %d)", n, mode, m, ref.TrainN())
			}

			got, want := mat.NewDense(m, m), mat.NewDense(m, m)
			g.fillKernel(got)
			ref.fillKernel(want)
			for i := 0; i < m; i++ {
				for j := i; j < m; j++ {
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Fatalf("n=%d %s: K[%d][%d] = %x, Eval loop %x", n, mode, i, j, got.At(i, j), want.At(i, j))
					}
				}
			}
			if a, b := g.LogMarginalLikelihood(), ref.LogMarginalLikelihood(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("n=%d %s: LML %x, Eval loop %x", n, mode, a, b)
			}
			for _, p := range probe {
				mu, v := g.Predict(p)
				rmu, rv := ref.Predict(p)
				if math.Float64bits(mu) != math.Float64bits(rmu) || math.Float64bits(v) != math.Float64bits(rv) {
					t.Fatalf("n=%d %s: posterior (%x, %x), Eval loop (%x, %x)", n, mode, mu, v, rmu, rv)
				}
			}
		}
	}
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
