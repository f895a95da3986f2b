//go:build !purego

package mat

import (
	"math"
	"math/rand"
	"testing"
)

// forceScalar turns the SIMD kernels off for the duration of a subtest and
// returns a restore function. simdOn is only assignable on amd64, which is
// also the only place there is a vector path to compare against.
func forceScalar() (restore func()) {
	prev := simdOn
	simdOn = false
	return func() { simdOn = prev }
}

// eachSIMDMode runs f with the vector kernels as detected and again with
// them forced off, so a differential test against a scalar reference covers
// both the kernels and the Go loops they stand in for.
func eachSIMDMode(f func(mode string)) {
	f("simd")
	defer forceScalar()()
	f("scalar")
}

// TestSIMDBitIdentical runs every vectorized primitive twice — SIMD enabled
// and forced scalar — over widths that exercise the 16-wide chunks, the
// 8-wide chunk and the scalar tail, and requires bit-equal results. On
// hardware without AVX both runs take the scalar path and the test is
// trivially green.
func TestSIMDBitIdentical(t *testing.T) {
	if !simdOn {
		t.Log("AVX unavailable; scalar-only run")
	}
	r := rand.New(rand.NewSource(11))
	widths := []int{1, 7, 8, 9, 15, 16, 17, 24, 64, 127, solveBatchCols, solveBatchCols + 37}

	t.Run("solve", func(t *testing.T) {
		for _, n := range []int{1, 4, 29} {
			c, err := NewCholesky(randomSPD(n, r))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range widths {
				b := NewDense(n, m)
				for i := range b.data {
					b.data[i] = r.NormFloat64()
				}
				got := NewDense(n, m)
				c.SolveLowerBatchTo(got, b)
				want := NewDense(n, m)
				restore := forceScalar()
				c.SolveLowerBatchTo(want, b)
				restore()
				for i := range got.data {
					if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
						t.Fatalf("n=%d m=%d: simd/scalar diverge at %d: %x vs %x",
							n, m, i, got.data[i], want.data[i])
					}
				}
			}
		}
	})

	t.Run("multvec-coldots", func(t *testing.T) {
		for _, m := range widths {
			a := NewDense(13, m)
			for i := range a.data {
				a.data[i] = r.NormFloat64()
			}
			x := make([]float64, 13)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			got := make([]float64, m)
			gotSq := make([]float64, m)
			MulTVecTo(got, a, x)
			ColDotsTo(gotSq, a)
			want := make([]float64, m)
			wantSq := make([]float64, m)
			restore := forceScalar()
			MulTVecTo(want, a, x)
			ColDotsTo(wantSq, a)
			restore()
			for j := 0; j < m; j++ {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("multvec m=%d col %d: %x vs %x", m, j, got[j], want[j])
				}
				if math.Float64bits(gotSq[j]) != math.Float64bits(wantSq[j]) {
					t.Fatalf("coldots m=%d col %d: %x vs %x", m, j, gotSq[j], wantSq[j])
				}
			}
		}
	})

	t.Run("sqdist-sqrtscale", func(t *testing.T) {
		for _, m := range widths {
			for _, dim := range []int{1, 3, 12} {
				xt := NewDense(dim, m)
				for i := range xt.data {
					xt.data[i] = r.Float64()
				}
				x := make([]float64, dim)
				for d := range x {
					x[d] = r.Float64()
				}
				inv := 1 / (0.3 * 0.3)
				got := make([]float64, m)
				gotR := make([]float64, m)
				SqDistColsTo(got, x, xt, 0, inv)
				SqrtScaleTo(gotR, got, 5)
				want := make([]float64, m)
				wantR := make([]float64, m)
				restore := forceScalar()
				SqDistColsTo(want, x, xt, 0, inv)
				SqrtScaleTo(wantR, want, 5)
				restore()
				for j := 0; j < m; j++ {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("sqdist m=%d dim=%d col %d: %x vs %x", m, dim, j, got[j], want[j])
					}
					if math.Float64bits(gotR[j]) != math.Float64bits(wantR[j]) {
						t.Fatalf("sqrtscale m=%d col %d: %x vs %x", m, j, gotR[j], wantR[j])
					}
				}
			}
		}
	})
}

// TestSqDistColsMatchesScalarLoop pins SqDistColsTo to the point-wise
// distance expression used by the isotropic kernels: for each candidate,
// sum over dimensions of ((x[d]-cand[d])²)·inv — and checks the sign-flip
// equivalence ((a-b)² == (b-a)² bitwise) that lets one transposed block
// serve both orientations.
func TestSqDistColsMatchesScalarLoop(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	dim, m := 5, 19
	xt := NewDense(dim, m)
	for i := range xt.data {
		xt.data[i] = r.Float64()
	}
	x := make([]float64, dim)
	for d := range x {
		x[d] = r.Float64()
	}
	inv := 1 / (0.7 * 0.7)
	s := make([]float64, m)
	SqDistColsTo(s, x, xt, 0, inv)
	for j := 0; j < m; j++ {
		want := 0.0
		for d := 0; d < dim; d++ {
			diff := xt.At(d, j) - x[d] // candidate-minus-point orientation
			want += diff * diff * inv
		}
		if math.Float64bits(s[j]) != math.Float64bits(want) {
			t.Fatalf("col %d: got %x want %x", j, s[j], want)
		}
	}
}

// TestExpKernelSelected fails where ExpTo has silently fallen back to
// math.Exp: on a CPU that can run the vector kernels, one of them must have
// reproduced math.Exp on the start-up probes. (Both branches of math.Exp are
// ported; GODEBUG=cpu.fma=off selects the other one.) A Go release that
// changes math.Exp's algorithm lands here.
func TestExpKernelSelected(t *testing.T) {
	kernels := runnableExpKernels()
	if len(kernels) == 0 {
		t.Skip("no AVX2: ExpTo is scalar on this CPU")
	}
	if expRow == nil {
		t.Fatal("no vector kernel reproduces math.Exp in this process; ExpTo runs scalar")
	}
	// The kernel in use must stop in front of a block it cannot handle and
	// report how far it got.
	src := []float64{-1, -2, -3, -4, -5, -6, math.Inf(-1), -8, -9, -10, -11, -12}
	dst := make([]float64, len(src))
	if got := expRow(&dst[0], &src[0], len(src)); got != 4 {
		t.Fatalf("kernel filled %d arguments in front of an infinity in the second block, want 4", got)
	}
}
