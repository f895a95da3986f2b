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

	t.Run("sqdist-matern", func(t *testing.T) {
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
				gotK := make([]float64, m)
				SqDistColsTo(got, x, xt, 0, inv)
				copy(gotK, got)
				MaternTo(gotK, 1.3)
				want := make([]float64, m)
				wantK := make([]float64, m)
				restore := forceScalar()
				SqDistColsTo(want, x, xt, 0, inv)
				copy(wantK, want)
				MaternTo(wantK, 1.3)
				restore()
				for j := 0; j < m; j++ {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("sqdist m=%d dim=%d col %d: %x vs %x", m, dim, j, got[j], want[j])
					}
					if math.Float64bits(gotK[j]) != math.Float64bits(wantK[j]) {
						t.Fatalf("matern m=%d col %d: %x vs %x", m, j, gotK[j], wantK[j])
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

// TestMaternKernelSelected fails where MaternTo has silently fallen back to
// the scalar expression: on a CPU that can run the vector kernels, one of
// them must have reproduced it on the start-up probes. (Both branches of
// math.Exp are ported; GODEBUG=cpu.fma=off selects the other one.) A Go
// release that changes math.Exp's algorithm lands here.
func TestMaternKernelSelected(t *testing.T) {
	if len(runnableMaternKernels()) == 0 {
		t.Skip("no AVX2: MaternTo is scalar on this CPU")
	}
	if maternRow == nil {
		t.Fatal("no vector kernel reproduces the Matérn expression in this process; MaternTo runs scalar")
	}
	// The kernel in use must stop in front of a block it cannot handle,
	// report how far it got and leave the rest of the row as it was.
	row := []float64{1, 2, 3, 4, 5, 6, math.Inf(1), 8, 9, 10, 11, 12}
	if got := maternRow(&row[0], 1, len(row)); got != 4 {
		t.Fatalf("kernel filled %d entries in front of an infinity in the second block, want 4", got)
	}
	for j, s := range row[4:] {
		if want := []float64{5, 6, math.Inf(1), 8, 9, 10, 11, 12}[j]; s != want {
			t.Fatalf("entry %d past the stop is %v, want %v untouched", 4+j, s, want)
		}
	}
}

// sleefExp is math.Exp's amd64 straight line (the SLEEF body of
// $GOROOT/src/math/exp_amd64.s) for an argument in [−708, 709], in Go:
// with fused true the branch taken under math.useFMA, every VFMADD a
// math.FMA, else the multiply-then-add one. The Go compiler leaves the
// unfused expressions unfused at the default GOAMD64=v1.
func sleefExp(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	c := []float64{
		2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
	}
	k := math.RoundToEven(x * log2e)
	if fused {
		x = math.FMA(-k, ln2u, x)
		x = math.FMA(-k, ln2l, x)
	} else {
		x -= k * ln2u
		x -= k * ln2l
	}
	x *= 0.0625
	p := c[0]
	for _, ci := range c[1:] {
		if fused {
			p = math.FMA(p, x, ci)
		} else {
			p = p*x + ci
		}
	}
	x *= p
	for i := 0; i < 3; i++ {
		x *= x + 2
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x *= x + 2
		x++
	}
	return x * math.Float64frombits(uint64(int64(k)+1023)<<52)
}

// TestMaternTwinsMatchEval forces each vector kernel this CPU can run, the
// one MaternTo does not use in this process included. A twin reproduces
// Eval's expression with math.Exp replaced by the branch it ports
// (sleefExp) on the blocks it takes, and with math.Exp itself on the blocks
// it hands back and the tail. sleefExp is in turn held to math.Exp: one of
// its branches must be the one this process runs.
func TestMaternTwinsMatchEval(t *testing.T) {
	if len(runnableMaternKernels()) == 0 {
		t.Skip("no AVX2: MaternTo is scalar on this CPU")
	}
	r := rand.New(rand.NewSource(25))
	args := make([]float64, 1<<16)
	for j := range args {
		args[j] = -r.Float64() * 708
	}
	args = append(args, 0, -708, math.Nextafter(-708, 0), -1e-300, -5e-324)
	native := 0
	for _, fused := range []bool{true, false} {
		same := true
		for _, x := range args {
			same = same && math.Float64bits(sleefExp(x, fused)) == math.Float64bits(math.Exp(x))
		}
		if same {
			native++
		}
	}
	if native == 0 {
		t.Fatal("neither ported branch of math.Exp reproduces math.Exp on [-708, 0]")
	}

	src := make([]float64, 1<<16+3)
	for j := range src {
		rad := r.Float64() * 720
		src[j] = rad * rad / 5
	}
	for lane, e := range maternEdges {
		src[(lane*37)%len(src)] = e
	}
	twins := []struct {
		name  string
		k     maternKernel
		fused bool
	}{{"fma", maternRowFMA, true}, {"mul", maternRowMul, false}}
	defer func(k maternKernel) { maternRow = k }(maternRow)
	const v = 1.7
	for _, tw := range twins {
		if tw.fused && !fma3 {
			continue
		}
		maternRow = tw.k
		for _, n := range []int{0, 1, 3, 4, 5, 8, 33, len(src)} {
			got := append([]float64(nil), src[:n]...)
			MaternTo(got, v)
			for b := 0; b < n; b += 4 {
				vector := b+4 <= n
				for j := b; vector && j < b+4; j++ {
					x := -math.Sqrt(5 * src[j])
					vector = x >= -708
				}
				for j := b; j < min(b+4, n); j++ {
					s := src[j]
					want := maternWant(s, v)
					if vector {
						rad := math.Sqrt(5 * s)
						want = v * (1 + rad + 5*s/3) * sleefExp(-rad, tw.fused)
					}
					if math.Float64bits(got[j]) != math.Float64bits(want) {
						t.Fatalf("%s twin, width %d: matern(%v) [%d] = %x, want %x (vector block %v)",
							tw.name, n, s, j, math.Float64bits(got[j]), math.Float64bits(want), vector)
					}
				}
			}
		}
	}
}
