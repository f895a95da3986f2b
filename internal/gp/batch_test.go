package gp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// assertBatchMatchesPointwise checks PredictBatch and PredictMeanBatch
// against per-point Predict bit for bit.
func assertBatchMatchesPointwise(t *testing.T, g *GP, X [][]float64) {
	t.Helper()
	mu := make([]float64, len(X))
	va := make([]float64, len(X))
	means := make([]float64, len(X))
	g.PredictBatch(X, mu, va)
	g.PredictMeanBatch(X, means)
	for j, x := range X {
		wm, wv := g.Predict(x)
		if math.Float64bits(mu[j]) != math.Float64bits(wm) ||
			math.Float64bits(va[j]) != math.Float64bits(wv) ||
			math.Float64bits(means[j]) != math.Float64bits(wm) {
			t.Fatalf("candidate %d: batch (%x, %x), mean-only %x != point-wise (%x, %x)",
				j, mu[j], va[j], means[j], wm, wv)
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

// TestPredictBatchAllocFree asserts the zero-allocation steady state of the
// batched path, full and mean-only: workspaces come from the one
// package-wide pool, which two GPs of equal training-set size draw from in
// turn, and outputs are caller-provided.
func TestPredictBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a fraction of Puts under the race detector")
	}
	r := rand.New(rand.NewSource(9))
	x, y := randomTraining(100, 12, r)
	g := New(NewMatern52(1, 0.5), 0.01)
	h := New(NewMatern52(0.7, 0.9), 0.03)
	for _, p := range []*GP{g, h} {
		if err := p.Fit(x, y); err != nil {
			t.Fatal(err)
		}
	}
	X := randomBatch(64, 12, r)
	mu := make([]float64, len(X))
	va := make([]float64, len(X))
	g.PredictBatch(X, mu, va) // warm the pool
	for name, run := range map[string]func(){
		"PredictBatch":     func() { g.PredictBatch(X, mu, va) },
		"PredictMeanBatch": func() { g.PredictMeanBatch(X, mu) },
		"two GPs": func() {
			g.PredictBatch(X, mu, va)
			h.PredictMeanBatch(X, mu)
			h.PredictBatch(X, mu, va)
		},
	} {
		if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
			t.Fatalf("%s allocates %.1f objects per run in steady state", name, allocs)
		}
	}
}

// TestBatchRejectsMisdimensionedCandidate holds the batched posterior to
// Predict's contract: a candidate longer or shorter than the training inputs
// panics with the same message, full and mean-only.
func TestBatchRejectsMisdimensionedCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := New(NewMatern52(1, 0.5), 0.01)
	x, y := randomTraining(12, 2, r)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		dim  int
		want string
	}{
		{"longer", 3, "gp: 3-dimensional point for a GP on 2-dimensional inputs"},
		{"shorter", 1, "gp: 1-dimensional point for a GP on 2-dimensional inputs"},
	} {
		X := [][]float64{{0.1, 0.2}, make([]float64, tc.dim)}
		mu, va := make([]float64, len(X)), make([]float64, len(X))
		for call, run := range map[string]func(){
			"Predict":          func() { g.Predict(X[1]) },
			"PredictBatch":     func() { g.PredictBatch(X, mu, va) },
			"PredictMeanBatch": func() { g.PredictMeanBatch(X, mu) },
		} {
			if got := recoverString(run); got != tc.want {
				t.Errorf("%s: %s panicked with %q, want %q", tc.name, call, got, tc.want)
			}
		}
	}
}

// recoverString runs f and returns the value it panicked with, as a string
// ("" when it returned).
func recoverString(f func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}
