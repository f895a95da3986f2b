package bo

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gp"
)

func batchTestHistory(n, dim int, seed int64) History {
	r := rand.New(rand.NewSource(seed))
	var h History
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = r.Float64()
			s += (x[d] - 0.4) * (x[d] - 0.4)
		}
		h = append(h, Observation{
			Theta: x,
			Res:   50 + 30*s + r.NormFloat64(),
			Tps:   10000 - 500*s + 10*r.NormFloat64(),
			Lat:   5 + s + 0.05*r.NormFloat64(),
		})
	}
	return h
}

func batchCandidates(m, dim int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	X := make([][]float64, m)
	for j := range X {
		X[j] = make([]float64, dim)
		for d := range X[j] {
			X[j][d] = r.Float64()
		}
	}
	return X
}

// TestTriGPSharedCrossCovBlock asserts the opportunistic sharing contract:
// when metric GPs carry identical kernel hyperparameters the batch path
// builds the cross-covariance block once (and, with equal noise, copies the
// solve's variances), and in every sharing regime — fully shared, kernel
// diverged, noise diverged — the batch posterior equals three independent
// point-wise Predict calls bit for bit.
func TestTriGPSharedCrossCovBlock(t *testing.T) {
	h := batchTestHistory(30, 4, 1)
	X := batchCandidates(40, 4, 2)

	check := func(t *testing.T, tri *TriGP) {
		t.Helper()
		var post BatchPosterior
		tri.PredictBatch(X, &post)
		for _, m := range Metrics {
			for j, x := range X {
				wm, wv := tri.Predict(m, x)
				if math.Float64bits(post.Mu[m][j]) != math.Float64bits(wm) ||
					math.Float64bits(post.Var[m][j]) != math.Float64bits(wv) {
					t.Fatalf("metric %v candidate %d: batch (%x,%x) != predict (%x,%x)",
						m, j, post.Mu[m][j], post.Var[m][j], wm, wv)
				}
			}
		}
	}

	// The per-metric hyperparameter searches of a full Fit almost always
	// diverge the kernels — that regime is checked below. First construct
	// the fully shared family explicitly: every metric adopts the resource
	// GP's kernel and noise, after which the steady-state path — one block,
	// one solve, copied variances — must be active and bit-identical to
	// point-wise prediction.
	fitted := NewTriGP(4, 1)
	if err := fitted.FitWithBudget(h, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fitted.gps); i++ {
		if err := fitted.gps[i].AdoptHyperparamsFrom(fitted.gps[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !fitted.gps[0].SharesCrossCov(fitted.gps[1]) || !fitted.gps[0].SharesCrossCov(fitted.gps[2]) {
		t.Fatal("adopted metric GPs must share the cross-covariance block")
	}
	if !fitted.gps[0].SharesSolve(fitted.gps[1]) || !fitted.gps[0].SharesSolve(fitted.gps[2]) {
		t.Fatal("adopted metric GPs must share the triangular solve")
	}
	check(t, fitted)

	// Diverged kernel on one metric: it must fall back to its own block
	// while the other two keep sharing, with parity intact.
	donor := gp.New(gp.NewMatern52(1.7, 0.4), fitted.gps[1].NoiseVariance)
	if err := fitted.gps[1].AdoptHyperparamsFrom(donor); err != nil {
		t.Fatal(err)
	}
	if fitted.gps[0].SharesCrossCov(fitted.gps[1]) {
		t.Fatal("diverged kernels must not share the cross-covariance block")
	}
	check(t, fitted)

	// Diverged noise only: the cross-covariance block is still shared but the
	// solve is not (different factors), exercising the PredictBatchCov path.
	fitted.gps[2].NoiseVariance *= 2
	if err := fitted.gps[2].Fit(fitted.gps[2].X(), fitted.gps[2].Y()); err != nil {
		t.Fatal(err)
	}
	if !fitted.gps[0].SharesCrossCov(fitted.gps[2]) || fitted.gps[0].SharesSolve(fitted.gps[2]) {
		t.Fatal("noise-diverged GPs must share the block but not the solve")
	}
	check(t, fitted)

	// A freshly fitted TriGP, whatever sharing regime its searches landed
	// in, must also hold batch/point-wise parity.
	check(t, func() *TriGP {
		tri := NewTriGP(4, 9)
		if err := tri.FitWithBudget(batchTestHistory(25, 4, 9), 0); err != nil {
			t.Fatal(err)
		}
		return tri
	}())
}

// TestCEIBatchMatchesPointwise pins CEIBatch's bit-identity to CEI, with and
// without an incumbent best (the NaN bootstrap branch).
func TestCEIBatchMatchesPointwise(t *testing.T) {
	tri := NewTriGP(6, 3)
	if err := tri.FitWithBudget(batchTestHistory(35, 6, 3), 0); err != nil {
		t.Fatal(err)
	}
	cons := tri.RawConstraints(SLA{LambdaTps: 9800, LambdaLat: 5.4})
	X := batchCandidates(100, 6, 4)
	out := make([]float64, len(X))
	for _, best := range []float64{math.NaN(), tri.Standardizer(Res).Apply(55)} {
		CEIBatch(tri, X, best, cons, out)
		for j, x := range X {
			if want := CEI(tri, x, best, cons); math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("best=%v candidate %d: batch %x != point %x", best, j, out[j], want)
			}
		}
	}
}

// TestOptimizeAcqBatchBitIdentical asserts that the batched probe phase
// yields exactly the point-wise recommendation across GOMAXPROCS settings,
// consuming the seeded stream identically (202 candidates: three full
// blocks and a ragged tail).
func TestOptimizeAcqBatchBitIdentical(t *testing.T) {
	tri := NewTriGP(5, 7)
	if err := tri.FitWithBudget(batchTestHistory(40, 5, 7), 0); err != nil {
		t.Fatal(err)
	}
	cons := tri.RawConstraints(SLA{LambdaTps: 9800, LambdaLat: 5.4})
	best := tri.Standardizer(Res).Apply(52)
	f := func(x []float64) float64 { return CEI(tri, x, best, cons) }
	fb := func(X [][]float64, out []float64) { CEIBatch(tri, X, best, cons, out) }
	incumbents := [][]float64{{0.4, 0.4, 0.4, 0.4, 0.4}, {0.9, 0.1, 0.5, 0.2, 0.8}}

	cfg := OptimizerConfig{RandomCandidates: 200, LocalStarts: 3, LocalSteps: 10, StepScale: 0.1}
	run := func(procs int, batch BatchAcqFunc) []float64 {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return OptimizeAcqBatch(f, batch, 5, cfg, incumbents, rand.New(rand.NewSource(42)))
	}

	want := run(1, nil)
	for _, procs := range []int{1, 8} {
		got := run(procs, fb)
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("procs=%d: dim %d %x != %x", procs, d, got[d], want[d])
			}
		}
		if got := run(procs, nil); math.Float64bits(got[0]) != math.Float64bits(want[0]) {
			t.Fatalf("point-wise path changed across GOMAXPROCS")
		}
	}
}

// TestBatchPosteriorResize covers reuse and growth of pooled posteriors.
func TestBatchPosteriorResize(t *testing.T) {
	var p BatchPosterior
	p.Resize(4)
	p.Mu[0][3] = 7
	p.Resize(2)
	if len(p.Mu[0]) != 2 || len(p.Var[2]) != 2 {
		t.Fatal("shrink failed")
	}
	p.Resize(4)
	if len(p.Mu[0]) != 4 {
		t.Fatal("regrow failed")
	}
	// Empty batch through CEIBatch must be a no-op.
	tri := NewTriGP(2, 1)
	if err := tri.FitWithBudget(batchTestHistory(10, 2, 9), 0); err != nil {
		t.Fatal(err)
	}
	CEIBatch(tri, nil, math.NaN(), Constraints{}, nil)
}
