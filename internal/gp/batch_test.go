package gp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

func randomTraining(n, dim int, r *rand.Rand) ([][]float64, []float64) {
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		s := 0.0
		for d := range x[i] {
			x[i][d] = r.Float64()
			s += x[i][d]
		}
		y[i] = math.Sin(3*s) + 0.1*r.NormFloat64()
	}
	return x, y
}

func randomBatch(m, dim int, r *rand.Rand) [][]float64 {
	X := make([][]float64, m)
	for j := range X {
		X[j] = make([]float64, dim)
		for d := range X[j] {
			X[j][d] = r.Float64()
		}
	}
	return X
}

// assertBatchMatchesPointwise checks PredictBatch against per-point Predict
// bit for bit.
func assertBatchMatchesPointwise(t *testing.T, g *GP, X [][]float64) {
	t.Helper()
	mu := make([]float64, len(X))
	va := make([]float64, len(X))
	g.PredictBatch(X, mu, va)
	for j, x := range X {
		wm, wv := g.Predict(x)
		if math.Float64bits(mu[j]) != math.Float64bits(wm) ||
			math.Float64bits(va[j]) != math.Float64bits(wv) {
			t.Fatalf("candidate %d: batch (%x, %x) != point-wise (%x, %x)",
				j, mu[j], va[j], wm, wv)
		}
	}
}

// TestPredictBatchBitIdentical covers batch sizes 0, 1 and larger, after a
// hyperparameter search (so the factorization is a realistic post-fit one).
func TestPredictBatchBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	t.Run("matern-iso", func(t *testing.T) {
		g := New(NewMatern52(1, 0.5), 0.01)
		x, y := randomTraining(40, 5, r)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultFitConfig()
		cfg.Candidates = 8
		FitHyperparams(g, cfg, rand.New(rand.NewSource(2)))
		for _, m := range []int{0, 1, 7, 64, 200} {
			assertBatchMatchesPointwise(t, g, randomBatch(m, 5, r))
		}
	})
}

// TestPredictBatchUnfitted checks the prior branch.
func TestPredictBatchUnfitted(t *testing.T) {
	g := New(NewMatern52(1.7, 0.5), 0.02)
	r := rand.New(rand.NewSource(1))
	assertBatchMatchesPointwise(t, g, randomBatch(5, 3, r))
}

// TestPredictBatchCovShared checks that a block built by one GP serves
// another with equal kernel (different noise and targets) bit-identically.
func TestPredictBatchCovShared(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	x, y1 := randomTraining(30, 4, r)
	y2 := make([]float64, len(y1))
	for i := range y2 {
		y2[i] = -2*y1[i] + 0.3
	}
	g1 := New(NewMatern52(1, 0.5), 0.01)
	g2 := New(NewMatern52(1, 0.5), 0.07)
	if err := g1.Fit(x, y1); err != nil {
		t.Fatal(err)
	}
	if err := g2.Fit(x, y2); err != nil {
		t.Fatal(err)
	}
	if !g1.SharesCrossCov(g2) {
		t.Fatal("equal kernels on shared inputs must share cross-covariance")
	}
	X := randomBatch(17, 4, r)
	kstar := mat.NewDense(g1.N(), len(X))
	g1.CrossCovTo(kstar, X)
	mu := make([]float64, len(X))
	va := make([]float64, len(X))
	g2.PredictBatchCov(kstar, X, mu, va)
	for j, xq := range X {
		wm, wv := g2.Predict(xq)
		if math.Float64bits(mu[j]) != math.Float64bits(wm) ||
			math.Float64bits(va[j]) != math.Float64bits(wv) {
			t.Fatalf("shared-block candidate %d: (%x,%x) != (%x,%x)", j, mu[j], va[j], wm, wv)
		}
	}
	// Diverged hyperparameters must refuse sharing.
	g2.kernel.SetParams([]float64{0.1, -0.3})
	if g1.SharesCrossCov(g2) {
		t.Fatal("diverged kernels must not share cross-covariance")
	}
}

// TestPredictBatchAllocFree asserts the zero-allocation steady state of the
// batched path: pooled workspaces plus caller-provided outputs.
func TestPredictBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	r := rand.New(rand.NewSource(9))
	g := New(NewMatern52(1, 0.5), 0.01)
	x, y := randomTraining(100, 12, r)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	X := randomBatch(64, 12, r)
	mu := make([]float64, len(X))
	va := make([]float64, len(X))
	g.PredictBatch(X, mu, va) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() {
		g.PredictBatch(X, mu, va)
	}); allocs > 0 {
		t.Fatalf("PredictBatch allocates %.1f objects per run in steady state", allocs)
	}
}
