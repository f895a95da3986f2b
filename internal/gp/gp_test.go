package gp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func grid1D(n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{float64(i) / float64(n-1)}
	}
	return x
}

func TestKernelBasics(t *testing.T) {
	for _, k := range []Kernel{NewMatern52(2, 0.3), NewRBF(2, 0.3)} {
		a := []float64{0.2, 0.8}
		// k(x,x) = variance
		if v := k.Eval(a, a); math.Abs(v-2) > 1e-12 {
			t.Fatalf("k(x,x)=%v want 2", v)
		}
		// symmetry
		b := []float64{0.9, 0.1}
		if math.Abs(k.Eval(a, b)-k.Eval(b, a)) > 1e-15 {
			t.Fatal("kernel not symmetric")
		}
		// decay with distance
		c := []float64{0.95, 0.05}
		if k.Eval(a, c) >= k.Eval(a, b) {
			t.Fatal("kernel should decay with distance")
		}
		// params round trip
		p := k.Params()
		k2 := k.Clone()
		k2.SetParams(p)
		if math.Abs(k2.Eval(a, b)-k.Eval(a, b)) > 1e-12 {
			t.Fatal("params round trip changed kernel")
		}
	}
}

// Property: kernel Gram matrices are positive semi-definite (checked via
// Cholesky with a small jitter).
func TestQuickKernelPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		dim := 1 + rng.Intn(5)
		x := make([][]float64, n)
		for i := range x {
			x[i] = make([]float64, dim)
			for d := range x[i] {
				x[i][d] = rng.Float64()
			}
		}
		for _, k := range []Kernel{NewMatern52(1, 0.2+rng.Float64()), NewRBF(1, 0.2+rng.Float64())} {
			gram := mat.NewDense(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					gram.Set(i, j, k.Eval(x[i], x[j]))
				}
				gram.Set(i, i, gram.At(i, i)+1e-8)
			}
			if _, err := mat.NewCholesky(gram); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGPInterpolatesNoiseless(t *testing.T) {
	x := grid1D(7)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(4 * xi[0])
	}
	g := New(NewMatern52(1, 0.3), 1e-8)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	for i, xi := range x {
		mu, v := g.Predict(xi)
		if math.Abs(mu-y[i]) > 1e-3 {
			t.Fatalf("interpolation miss at %v: mu=%v y=%v", xi, mu, y[i])
		}
		if v > 1e-3 {
			t.Fatalf("variance at training point too high: %v", v)
		}
	}
	// Away from data, variance grows.
	_, vFar := g.Predict([]float64{3.0})
	if vFar < 0.5 {
		t.Fatalf("variance far from data should approach prior, got %v", vFar)
	}
}

func TestGPPriorBeforeFit(t *testing.T) {
	g := New(NewRBF(2, 0.5), 0.1)
	mu, v := g.Predict([]float64{0.3})
	if mu != 0 {
		t.Fatalf("prior mean: %v", mu)
	}
	if math.Abs(v-2.1) > 1e-12 {
		t.Fatalf("prior variance: %v want 2.1", v)
	}
}

func TestGPFitErrors(t *testing.T) {
	g := New(NewRBF(1, 0.5), 0.01)
	if err := g.Fit(nil, nil); err == nil {
		t.Fatal("expected error on empty fit")
	}
	if err := g.Fit([][]float64{{0}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error on length mismatch")
	}
}

func TestGPPredictionReasonable(t *testing.T) {
	// Noisy observations of a smooth function: posterior mean should be much
	// closer to the truth than the noise scale at held-out points.
	rng := rand.New(rand.NewSource(11))
	x := grid1D(40)
	f := func(v float64) float64 { return v*v - 0.5*v }
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = f(xi[0]) + 0.01*rng.NormFloat64()
	}
	g := New(NewMatern52(1, 0.5), 1e-4)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	FitHyperparams(g, DefaultFitConfig(), rng)
	for _, xv := range []float64{0.13, 0.37, 0.77} {
		mu, _ := g.Predict([]float64{xv})
		if math.Abs(mu-f(xv)) > 0.05 {
			t.Fatalf("posterior mean at %v off: %v vs %v", xv, mu, f(xv))
		}
	}
}

func TestFitHyperparamsImprovesLML(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := grid1D(25)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Sin(6*xi[0]) + 0.05*rng.NormFloat64()
	}
	// Start from a deliberately bad kernel.
	g := New(NewMatern52(0.01, 5.0), 0.5)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	before := g.LogMarginalLikelihood()
	after := FitHyperparams(g, DefaultFitConfig(), rng)
	if after < before {
		t.Fatalf("hyperparameter fit made LML worse: %v -> %v", before, after)
	}
	if after-before < 1 {
		t.Fatalf("expected substantial LML improvement from bad start: %v -> %v", before, after)
	}
}

func TestLOO(t *testing.T) {
	// LOO predictions must match actually refitting without the point
	// (same hyperparameters).
	rng := rand.New(rand.NewSource(17))
	x := grid1D(12)
	y := make([]float64, len(x))
	for i, xi := range x {
		y[i] = math.Cos(3*xi[0]) + 0.02*rng.NormFloat64()
	}
	g := New(NewMatern52(1, 0.4), 1e-3)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	looMu, looVar := g.LOO()
	for drop := 0; drop < len(x); drop += 4 {
		xs := make([][]float64, 0, len(x)-1)
		ys := make([]float64, 0, len(x)-1)
		for i := range x {
			if i == drop {
				continue
			}
			xs = append(xs, x[i])
			ys = append(ys, y[i])
		}
		g2 := New(NewMatern52(1, 0.4), 1e-3)
		if err := g2.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		mu, v := g2.Predict(x[drop])
		// The refit GP recenters its mean on the n-1 points, so allow a
		// modest tolerance rather than exact agreement.
		if math.Abs(mu-looMu[drop]) > 0.05 {
			t.Fatalf("LOO mean at %d: %v vs refit %v", drop, looMu[drop], mu)
		}
		if math.Abs(v-looVar[drop])/v > 0.5 {
			t.Fatalf("LOO var at %d: %v vs refit %v", drop, looVar[drop], v)
		}
	}
	if mu, _ := New(NewRBF(1, 1), 0.1).LOO(); mu != nil {
		t.Fatal("LOO on unfitted GP should return nil")
	}
}

// TestLOOAllocatesLinear pins LOO's storage to O(n): its two result vectors
// and the diagonal of K⁻¹, where the full inverse it once built was n² floats
// (320 KB at n = 200), exact and under a sparse view.
func TestLOOAllocatesLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	const n = 200
	x, y := randPoints(n, 6, 43)
	for _, sparse := range []SparseConfig{{}, {Threshold: 120, MaxAnchors: 90}} {
		g := New(NewMatern52(1, 0.5), 0.01)
		g.SetSparse(sparse)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		bytes := int64(searchBytes(t, func(int64) float64 { g.LOO(); return 0 }))
		t.Logf("sparse %+v: LOO allocates %d bytes at n=%d", sparse, bytes, n)
		if limit := int64(4 * 8 * n); bytes > limit {
			t.Fatalf("sparse %+v: LOO allocates %d bytes at n=%d, want at most %d (4n floats)", sparse, bytes, n, limit)
		}
	}
}

func TestGPDeterminism(t *testing.T) {
	build := func() float64 {
		rng := rand.New(rand.NewSource(5))
		x := grid1D(15)
		y := make([]float64, len(x))
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		g := New(NewMatern52(1, 0.5), 0.01)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		FitHyperparams(g, DefaultFitConfig(), rng)
		mu, _ := g.Predict([]float64{0.33})
		return mu
	}
	if build() != build() {
		t.Fatal("GP pipeline must be deterministic for a fixed seed")
	}
}

// TestARDKernels exercises the anisotropic (per-dimension length scale)
// kernel path: a function varying only along dimension 0 is fit better once
// the irrelevant dimension's length scale grows.
func TestARDKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var x [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		p := []float64{rng.Float64(), rng.Float64()}
		x = append(x, p)
		y = append(y, math.Sin(6*p[0])) // dimension 1 is pure noise input
	}
	kern := &Matern52{Variance: 1, LengthScales: []float64{0.5, 0.5}}
	g := New(kern, 1e-4)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	FitHyperparams(g, DefaultFitConfig(), rng)
	// Predictions track the true function regardless of dim 1.
	for _, x0 := range []float64{0.2, 0.5, 0.8} {
		a, _ := g.Predict([]float64{x0, 0.1})
		b, _ := g.Predict([]float64{x0, 0.9})
		want := math.Sin(6 * x0)
		if math.Abs(a-want) > 0.15 || math.Abs(b-want) > 0.15 {
			t.Fatalf("ARD fit poor at x0=%v: %v, %v want %v", x0, a, b, want)
		}
	}
	// Params round trip covers the ARD slice length.
	p := kern.Params()
	if len(p) != 3 {
		t.Fatalf("ARD params length %d", len(p))
	}
	clone := kern.Clone().(*Matern52)
	if len(clone.LengthScales) != 2 {
		t.Fatal("clone lost ARD scales")
	}

	// RBF ARD too.
	rk := &RBF{Variance: 1, LengthScales: []float64{0.3, 3.0}}
	if rk.Eval([]float64{0, 0}, []float64{0.1, 0}) >= rk.Eval([]float64{0, 0}, []float64{0, 0.1}) {
		t.Fatal("short length scale should decay faster")
	}
}
