package gp

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestUniformWeightsBitIdenticalToNil pins the forgetting layer's
// compatibility contract: observation weights of exactly 1 must be
// indistinguishable — to the bit — from no weights at all, across Fit,
// Predict, the log marginal likelihood and the hyperparameter search, at
// GOMAXPROCS 1 and oversubscribed. This is what lets the session leave
// weights nil until the first drift translation without forking the
// numeric path.
func TestUniformWeightsBitIdenticalToNil(t *testing.T) {
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		x, y := randPoints(30, 4, 19)
		ones := make([]float64, len(x))
		for i := range ones {
			ones[i] = 1
		}

		plain := New(NewMatern52(1, 0.5), 0.01)
		weighted := New(NewMatern52(1, 0.5), 0.01)
		weighted.SetObservationWeights(ones)
		if err := plain.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if err := weighted.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if plain.LogMarginalLikelihood() != weighted.LogMarginalLikelihood() {
			t.Fatalf("procs=%d: LML differs under all-ones weights", procs)
		}
		probe, _ := randPoints(8, 4, 91)
		for _, p := range probe {
			mp, vp := plain.Predict(p)
			mw, vw := weighted.Predict(p)
			if mp != mw || vp != vw {
				t.Fatalf("procs=%d: posterior differs under all-ones weights: (%v,%v) vs (%v,%v)",
					procs, mp, vp, mw, vw)
			}
		}

		lp := FitHyperparams(plain, DefaultFitConfig(), rand.New(rand.NewSource(23)))
		lw := FitHyperparams(weighted, DefaultFitConfig(), rand.New(rand.NewSource(23)))
		if lp != lw {
			t.Fatalf("procs=%d: hyperparameter search diverged under all-ones weights (%v vs %v)", procs, lp, lw)
		}
		for _, p := range probe {
			mp, vp := plain.Predict(p)
			mw, vw := weighted.Predict(p)
			if mp != mw || vp != vw {
				t.Fatalf("procs=%d: post-search posterior differs under all-ones weights", procs)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestDecayedWeightsIncrementalMatchesFullRefit replays the session's
// forgetting lifecycle — grow the history one observation at a time, decay
// every existing weight at a simulated drift translation, keep growing —
// and checks the incremental fit stays bit-identical to a fresh fit with
// the same final weights. The weight change must force exactly one full
// refactor; the appends around it must keep the O(n²) path.
func TestDecayedWeightsIncrementalMatchesFullRefit(t *testing.T) {
	x, y := randPoints(30, 3, 29)
	w := make([]float64, 0, len(x))

	inc := New(NewMatern52(1, 0.5), 0.01)
	probe, _ := randPoints(5, 3, 97)
	for n := 2; n <= len(x); n++ {
		for len(w) < n {
			w = append(w, 1)
		}
		if n == 12 || n == 22 { // drift translations: decay, floored
			for i := 0; i < n-1; i++ {
				w[i] *= 0.7
				if w[i] < 0.05 {
					w[i] = 0.05
				}
			}
		}
		inc.SetObservationWeights(w[:n])
		if err := inc.Fit(x[:n], y[:n]); err != nil {
			t.Fatalf("incremental weighted fit at n=%d: %v", n, err)
		}

		full := New(NewMatern52(1, 0.5), 0.01)
		full.SetObservationWeights(append([]float64(nil), w[:n]...))
		if err := full.Fit(x[:n], y[:n]); err != nil {
			t.Fatalf("full weighted fit at n=%d: %v", n, err)
		}
		for _, p := range probe {
			mi, vi := inc.Predict(p)
			mf, vf := full.Predict(p)
			if mi != mf || vi != vf {
				t.Fatalf("n=%d: weighted incremental posterior differs: (%v,%v) vs (%v,%v)", n, mi, vi, mf, vf)
			}
		}
		if inc.LogMarginalLikelihood() != full.LogMarginalLikelihood() {
			t.Fatalf("n=%d: weighted LML differs", n)
		}
	}
}

// TestDownWeightingFadesObservation checks the semantics of forgetting:
// shrinking an observation's weight inflates its effective noise, so the
// posterior at that point loses confidence (variance grows) and the mean
// relaxes toward the prior relative to the fully-trusted fit.
func TestDownWeightingFadesObservation(t *testing.T) {
	x := [][]float64{{0.2, 0.8}, {0.8, 0.2}}
	y := []float64{2, -2}

	trusted := New(NewMatern52(1, 0.4), 0.01)
	if err := trusted.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	faded := New(NewMatern52(1, 0.4), 0.01)
	faded.SetObservationWeights([]float64{0.05, 1})
	if err := faded.Fit(x, y); err != nil {
		t.Fatal(err)
	}

	mt, vt := trusted.Predict(x[0])
	mf, vf := faded.Predict(x[0])
	if vf <= vt {
		t.Fatalf("down-weighted observation did not lose confidence: var %v -> %v", vt, vf)
	}
	// The GP standardizes targets internally, so the prior mean is the
	// (weight-independent) sample mean 0; fading the y=2 observation must
	// pull the posterior mean at its location toward it.
	if absf(mf) >= absf(mt) {
		t.Fatalf("down-weighted observation did not relax toward the prior: mean %v -> %v", mt, mf)
	}
}

// TestObservationWeightValidation pins the Fit-time contract: a weight
// vector of the wrong length, or containing a non-positive or non-finite
// entry, is a caller bug and must be rejected before it can poison the
// factorization.
func TestObservationWeightValidation(t *testing.T) {
	x, y := randPoints(4, 2, 31)
	for _, tc := range []struct {
		name string
		w    []float64
	}{
		{"short", []float64{1, 1}},
		{"long", []float64{1, 1, 1, 1, 1}},
		{"zero", []float64{1, 0, 1, 1}},
		{"negative", []float64{1, -0.5, 1, 1}},
		{"nan", []float64{1, nan(), 1, 1}},
	} {
		g := New(NewMatern52(1, 0.5), 0.01)
		g.SetObservationWeights(tc.w)
		if err := g.Fit(x, y); err == nil {
			t.Errorf("%s: Fit accepted invalid observation weights %v", tc.name, tc.w)
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func nan() float64 {
	z := 0.0
	return z / z
}
