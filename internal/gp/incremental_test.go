package gp

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func randPoints(n, dim int, seed int64) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for d := range x[i] {
			x[i][d] = r.Float64()
		}
		y[i] = r.NormFloat64()
	}
	return x, y
}

// TestIncrementalFitMatchesFullRefit grows a history one observation at a
// time and checks that the O(n²) append path produces a model bit-identical
// to refitting from scratch — the invariant that makes the fast path
// invisible to every caller.
func TestIncrementalFitMatchesFullRefit(t *testing.T) {
	x, y := randPoints(40, 5, 3)
	inc := New(NewMatern52(1, 0.5), 0.01)
	if err := inc.Fit(x[:2], y[:2]); err != nil {
		t.Fatal(err)
	}
	probe, _ := randPoints(5, 5, 99)
	for n := 3; n <= len(x); n++ {
		if err := inc.Fit(x[:n], y[:n]); err != nil {
			t.Fatalf("incremental fit at n=%d: %v", n, err)
		}
		full := New(NewMatern52(1, 0.5), 0.01)
		if err := full.Fit(x[:n], y[:n]); err != nil {
			t.Fatalf("full fit at n=%d: %v", n, err)
		}
		for _, p := range probe {
			mi, vi := inc.Predict(p)
			mf, vf := full.Predict(p)
			if mi != mf || vi != vf {
				t.Fatalf("n=%d: incremental posterior differs: (%v,%v) vs (%v,%v)", n, mi, vi, mf, vf)
			}
		}
		if inc.LogMarginalLikelihood() != full.LogMarginalLikelihood() {
			t.Fatalf("n=%d: LML differs", n)
		}
	}
}

// TestIncrementalFitRespectsRestandardizedTargets re-fits a grown history
// whose targets are rescaled wholesale each step (as TriGP's per-iteration
// standardization does) and checks exact agreement with a fresh fit.
func TestIncrementalFitRespectsRestandardizedTargets(t *testing.T) {
	x, y := randPoints(20, 3, 11)
	inc := New(NewMatern52(1, 0.4), 0.05)
	scaled := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			out[i] = y[i] * scale
		}
		return out
	}
	if err := inc.Fit(x[:10], scaled(10, 1.0)); err != nil {
		t.Fatal(err)
	}
	for n := 11; n <= 20; n++ {
		s := 1 + 0.1*float64(n)
		if err := inc.Fit(x[:n], scaled(n, s)); err != nil {
			t.Fatal(err)
		}
		full := New(NewMatern52(1, 0.4), 0.05)
		if err := full.Fit(x[:n], scaled(n, s)); err != nil {
			t.Fatal(err)
		}
		mi, vi := inc.Predict(x[0])
		mf, vf := full.Predict(x[0])
		if mi != mf || vi != vf {
			t.Fatalf("n=%d: posterior differs after target rescale", n)
		}
	}
}

// TestFitDetectsHyperparamChange verifies that touching hyperparameters
// between fits disables the incremental path (the factorization must follow
// the kernel).
func TestFitDetectsHyperparamChange(t *testing.T) {
	x, y := randPoints(15, 2, 5)
	g := New(NewMatern52(1, 0.5), 0.01)
	if err := g.Fit(x[:14], y[:14]); err != nil {
		t.Fatal(err)
	}
	g.kernel.SetParams([]float64{0.3, -0.7})
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	want := New(NewMatern52(1, 0.5), 0.01)
	want.kernel.SetParams([]float64{0.3, -0.7})
	if err := want.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	gm, gv := g.Predict(x[3])
	wm, wv := want.Predict(x[3])
	if gm != wm || gv != wv {
		t.Fatal("fit after hyperparameter change must match a fresh fit")
	}

	// Changing noise alone must also invalidate the incremental path.
	g2 := New(NewMatern52(1, 0.5), 0.01)
	if err := g2.Fit(x[:14], y[:14]); err != nil {
		t.Fatal(err)
	}
	g2.NoiseVariance = 0.2
	if err := g2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	want2 := New(NewMatern52(1, 0.5), 0.2)
	if err := want2.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if m1, v1 := g2.Predict(x[3]); func() bool { m2, v2 := want2.Predict(x[3]); return m1 != m2 || v1 != v2 }() {
		t.Fatal("fit after noise change must match a fresh fit")
	}
}

// TestPredictConcurrent hammers Predict from many goroutines; run with
// -race this doubles as the data-race regression for the pooled scratch.
func TestPredictConcurrent(t *testing.T) {
	x, y := randPoints(60, 4, 7)
	g := New(NewMatern52(1, 0.5), 0.01)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	serial := make([]float64, len(x))
	for i, p := range x {
		serial[i], _ = g.Predict(p)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, p := range x {
					if mu, _ := g.Predict(p); mu != serial[i] {
						t.Errorf("concurrent Predict diverged at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFitHyperparamsDeterministicAcrossGOMAXPROCS checks the fan-out
// contract at the GP level: the parallel candidate search must pick the same
// hyperparameters regardless of parallelism.
func TestFitHyperparamsDeterministicAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) (float64, float64, float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		x, y := randPoints(30, 3, 13)
		g := New(NewMatern52(1, 0.5), 0.01)
		if err := g.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		lml := FitHyperparams(g, DefaultFitConfig(), rand.New(rand.NewSource(21)))
		mu, v := g.Predict(x[1])
		return lml, mu, v
	}
	l1, m1, v1 := run(1)
	l8, m8, v8 := run(8)
	if l1 != l8 || m1 != m8 || v1 != v8 {
		t.Fatalf("hyperparameter search not GOMAXPROCS-invariant: (%v,%v,%v) vs (%v,%v,%v)",
			l1, m1, v1, l8, m8, v8)
	}
}

// TestPredictAllocFree asserts the steady-state acquisition path does not
// allocate.
func TestPredictAllocFree(t *testing.T) {
	x, y := randPoints(100, 14, 17)
	g := New(NewMatern52(1, 0.5), 0.01)
	if err := g.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	g.Predict(x[0]) // warm the pool
	avg := testing.AllocsPerRun(200, func() { g.Predict(x[0]) })
	if avg > 0.1 {
		t.Fatalf("Predict allocates %.2f objects/op in steady state", avg)
	}
}
