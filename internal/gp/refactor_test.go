package gp

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/mat"
)

// reference is a GP's posterior rebuilt from first principles: K, k* and the
// prior entry by entry from Matern52.Eval, the factor and every solve from
// mat directly. It reads only the GP's hyperparameters, history, weights and
// view, so it holds the vector kernel rows — refactor's fill, the point-wise
// row and the cross-covariance block — and everything the GP assembles on
// them to the scalar kernel.
type reference struct {
	k     Matern52
	noise float64
	tx    [][]float64
	K     *mat.Dense // K + Σ + jitter over the view, both triangles
	chol  mat.Cholesky
	alpha []float64
	meanY float64
	quad  float64 // (y − mean)ᵀ α over the view
}

func newReference(t *testing.T, g *GP) *reference {
	t.Helper()
	m := g.TrainN()
	ref := &reference{k: g.kernel, noise: g.NoiseVariance, tx: g.tx, K: mat.NewDense(m, m), meanY: mean(g.y)}
	for i := 0; i < m; i++ {
		for j := i; j < m; j++ {
			v := ref.k.Eval(g.tx[i], g.tx[j])
			ref.K.Set(i, j, v)
			ref.K.Set(j, i, v)
		}
		noise := g.NoiseVariance
		if g.obsW != nil {
			noise /= g.obsW[g.at(i)]
		}
		ref.K.Set(i, i, ref.K.At(i, i)+noise+jitter)
	}
	if err := ref.chol.Factor(ref.K); err != nil {
		t.Fatalf("reference factor: %v", err)
	}
	resid := make([]float64, m)
	for i := range resid {
		resid[i] = g.y[g.at(i)] - ref.meanY
	}
	ref.alpha = make([]float64, m)
	ref.chol.SolveVecTo(ref.alpha, resid)
	for i, r := range resid {
		ref.quad += r * ref.alpha[i]
	}
	return ref
}

// row returns k(x, tx[i]) over the view.
func (ref *reference) row(x []float64) []float64 {
	ks := make([]float64, len(ref.tx))
	for i, xi := range ref.tx {
		ks[i] = ref.k.Eval(x, xi)
	}
	return ks
}

func (ref *reference) predict(x []float64) (mu, variance float64) {
	ks := ref.row(x)
	mu = ref.meanY + mat.Dot(ks, ref.alpha)
	v := make([]float64, len(ks))
	ref.chol.SolveLowerVecTo(v, ks)
	variance = ref.k.Eval(x, x) + ref.noise - mat.Dot(v, v)
	return mu, max(variance, 1e-12)
}

func (ref *reference) lml() float64 {
	m := float64(len(ref.tx))
	return -0.5*ref.quad - 0.5*ref.chol.LogDet() - 0.5*m*math.Log(2*math.Pi)
}

// loo applies the leave-one-out identities to view entries and the posterior
// to every other history point.
func (ref *reference) loo(g *GP) (mu, variance []float64) {
	kinv := make([]float64, len(ref.tx))
	ref.chol.InverseDiagTo(kinv)
	inView := map[int]int{}
	for k := range ref.tx {
		inView[g.at(k)] = k
	}
	mu, variance = make([]float64, g.N()), make([]float64, g.N())
	for i := range mu {
		k, ok := inView[i]
		if !ok {
			mu[i], variance[i] = ref.predict(g.x[i])
			continue
		}
		mu[i], variance[i] = g.y[i]-ref.alpha[k]/kinv[k], max(1/kinv[k], 1e-12)
	}
	return mu, variance
}

// TestVectorFillMatchesEvalLoop holds the vector kernel code to the scalar
// reference above. A history grows one point at a time to 150 — view sizes
// on both sides of the vector width and of the factor's 16-row panel — plain,
// with observation weights, under a sparse view and under both; at every size
// refactor's filled upper triangle, the point-wise kernel row and the
// cross-covariance block must match Eval entry by entry, and everything built
// on them must too: the log marginal likelihood (the factor's
// log-determinant and weights), Predict, PredictMean, PredictBatch and LOO.
// The growth crosses every path that changes the view or the factor it is
// read with: an append, a rebuild, a search, AdoptHyperparamsFrom and
// SetSparse. Under -tags purego the vector kernels are compiled out and the
// same table checks the scalar fallbacks.
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
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, mode := range []string{"plain", "weighted", "sparse", "sparse weighted"} {
		sparse := SparseConfig{}
		if mode == "sparse" || mode == "sparse weighted" {
			sparse = SparseConfig{Threshold: 80, MaxAnchors: 66, ReselectEvery: 5}
		}
		weighted := mode == "weighted" || mode == "sparse weighted"
		g := New(NewMatern52(1.7, 0.4), 0.013)
		donor := New(NewMatern52(0.8, 0.7), 0.05)
		g.SetSparse(sparse)
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
			if _, cols := g.xt.Dims(); cols != m || g.chol == nil {
				t.Fatalf("%s n=%d after %s: view of %d points, transposed %d", mode, n, path, m, cols)
			}
			ref := newReference(t, g)
			got := fillAll(g)
			for i := 0; i < m; i++ {
				for j := i; j < m; j++ {
					if !same(got.At(i, j), ref.K.At(i, j)) {
						t.Fatalf("%s n=%d after %s: K[%d][%d] = %x, Eval %x", mode, n, path, i, j, got.At(i, j), ref.K.At(i, j))
					}
				}
			}
			if a, b := g.LogMarginalLikelihood(), ref.lml(); !same(a, b) {
				t.Fatalf("%s n=%d after %s: LML %x, reference %x", mode, n, path, a, b)
			}
			cross := mat.NewDense(m, len(probe))
			g.CrossCovTo(cross, probe)
			mu, va := make([]float64, len(probe)), make([]float64, len(probe))
			g.PredictBatch(probe, mu, va)
			for j, p := range probe {
				want := ref.row(p)
				pb := g.predictBuf()
				row := g.kernelRow(pb, p)
				for i := range want {
					if !same(row[i], want[i]) || !same(cross.At(i, j), want[i]) {
						t.Fatalf("%s n=%d after %s: k(probe %d, x_%d): row %x, block %x, Eval %x", mode, n, path, j, i, row[i], cross.At(i, j), want[i])
					}
				}
				g.scratch.Put(pb)
				rmu, rv := ref.predict(p)
				pmu, pv := g.Predict(p)
				if !same(pmu, rmu) || !same(pv, rv) || !same(mu[j], rmu) || !same(va[j], rv) {
					t.Fatalf("%s n=%d after %s: probe %d: Predict (%x, %x), batch (%x, %x), reference (%x, %x)", mode, n, path, j, pmu, pv, mu[j], va[j], rmu, rv)
				}
				if mean := g.PredictMean(p); !same(mean, rmu) {
					t.Fatalf("%s n=%d after %s: probe %d: mean-only %x, reference %x", mode, n, path, j, mean, rmu)
				}
			}
			lmu, lv := g.LOO()
			rmu, rv := ref.loo(g)
			for i := range rmu {
				if !same(lmu[i], rmu[i]) || !same(lv[i], rv[i]) {
					t.Fatalf("%s n=%d after %s: LOO %d (%x, %x), reference (%x, %x)", mode, n, path, i, lmu[i], lv[i], rmu[i], rv[i])
				}
			}
		}
		for n := 1; n <= maxN; n++ {
			fit(n, g, donor)
			check(n, "fit")
			if n%7 == 3 {
				FitHyperparams(g, FitConfig{Candidates: 4}, rand.New(rand.NewSource(int64(n))))
				// adopt installs the winner's factor but sets the kernel
				// through log space, which can move its last bit off the one
				// the factor was built with (it does under cpu.fma=off). The
				// reference is built from the kernel as installed, so rebuild
				// under it before comparing.
				if err := g.refactor(math.Inf(-1)); err != nil {
					t.Fatalf("%s n=%d: %v", mode, n, err)
				}
				check(n, "search")
			}
			if n%11 == 5 {
				if err := g.AdoptHyperparamsFrom(donor); err != nil {
					t.Fatalf("%s n=%d: %v", mode, n, err)
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
				g.SetSparse(next)
				fit(n, g)
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
	want := defaultParams()
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
