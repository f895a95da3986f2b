package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceFactor is the left-looking scalar factorization Factor used to
// be — one entry at a time, one loop-carried subtract chain per entry — kept
// as the reference the blocked Factor must reproduce bit for bit: packed
// factor, failing pivot, its d and the error text.
func referenceFactor(a *Dense) ([]float64, error) {
	n := a.rows
	c := Cholesky{n: n, d: make([]float64, n*(n+1)/2)}
	for j := 0; j < n; j++ {
		rowj := c.Row(j)
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= rowj[k] * rowj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("mat: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		rowj[j] = ljj
		for i := j + 1; i < n; i++ {
			rowi := c.Row(i)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= rowi[k] * rowj[k]
			}
			rowi[j] = s / ljj
		}
	}
	return c.d, nil
}

// referenceSolveLower is the one-row-at-a-time forward substitution.
func referenceSolveLower(c *Cholesky, b []float64) []float64 {
	y := make([]float64, c.n)
	for i := 0; i < c.n; i++ {
		s := b[i]
		row := c.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	return y
}

// checkFactor factors a with the blocked Factor, in every SIMD mode, and
// holds the outcome to referenceFactor's. a must be symmetric. The factor
// under test starts with stale contents, as a pooled one does.
func checkFactor(t *testing.T, a *Dense) {
	t.Helper()
	want, wantErr := referenceFactor(a)
	eachSIMDMode(func(mode string) {
		n := a.rows
		c := Cholesky{n: 3, d: make([]float64, 6, n*(n+1)/2+6)}
		for i := range c.d[:cap(c.d)] {
			c.d[:cap(c.d)][i] = math.NaN()
		}
		err := c.Factor(a)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("n=%d %s: error %v, reference %v", n, mode, err, wantErr)
		}
		if err != nil {
			if c.N() != 0 || len(c.d) != 0 {
				t.Fatalf("n=%d %s: failed factor is not empty (n=%d, %d entries)", n, mode, c.N(), len(c.d))
			}
			return
		}
		if c.N() != n || len(c.d) != len(want) {
			t.Fatalf("n=%d %s: factor has n=%d, %d entries", n, mode, c.N(), len(c.d))
		}
		for i := range want {
			if math.Float64bits(c.d[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d %s: packed entry %d is %x, reference %x", n, mode, i, c.d[i], want[i])
			}
		}
	})
}

// spoil makes the symmetric matrix a fail at (or before) pivot p: the
// diagonal entry becomes what the rows above already account for, minus
// excess, so d there comes out near -excess; NaN poisons it instead.
func spoil(a *Dense, p int, excess float64) {
	c, err := NewCholesky(a)
	if err != nil {
		return
	}
	sum := 0.0
	for _, v := range c.Row(p)[:p] {
		sum += v * v
	}
	a.Set(p, p, sum-excess)
}

// TestFactorMatchesScalarReference runs the blocked Factor against the
// scalar reference at sizes on both sides of the vector width (8), of the
// 16-lane chunk and of the panel width, on positive-definite matrices and on
// ones that fail at the first, an interior, a panel-boundary and the last
// pivot — with d negative, zero and NaN.
func TestFactorMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	sizes := []int{1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 200, 257}
	for _, n := range sizes {
		a := randomSPD(n, r)
		checkFactor(t, a)
		for _, p := range []int{0, n / 3, factorPanel - 1, factorPanel, n - 1} {
			if p >= n {
				continue
			}
			for _, excess := range []float64{0.5, 0, math.NaN()} {
				b := a.Clone()
				spoil(b, p, excess)
				checkFactor(t, b)
			}
		}
	}
}

// TestFactorReadsUpperTriangle pins the half of a that Factor documents it
// reads: garbage below the diagonal changes nothing.
func TestFactorReadsUpperTriangle(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, n := range []int{5, 70, 131} {
		a := randomSPD(n, r)
		want, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				a.Set(i, j, math.NaN())
			}
		}
		eachSIMDMode(func(mode string) {
			got, err := NewCholesky(a)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, mode, err)
			}
			for i := range want.d {
				if math.Float64bits(got.d[i]) != math.Float64bits(want.d[i]) {
					t.Fatalf("n=%d %s: entry %d depends on the lower triangle", n, mode, i)
				}
			}
		})
	}
}

// FuzzFactorBlocked drives checkFactor with matrices of fuzzed size,
// conditioning and failing pivot.
func FuzzFactorBlocked(f *testing.F) {
	f.Add(int64(1), uint16(9), uint16(0), 0.0, false)
	f.Add(int64(2), uint16(64), uint16(63), 1e-3, true)
	f.Add(int64(3), uint16(130), uint16(64), -1.0, true)
	f.Add(int64(4), uint16(77), uint16(5), math.NaN(), true)
	f.Fuzz(func(t *testing.T, seed int64, size, pivot uint16, excess float64, fail bool) {
		n := 1 + int(size)%160
		a := randomSPD(n, rand.New(rand.NewSource(seed)))
		if fail {
			spoil(a, int(pivot)%n, excess)
		}
		checkFactor(t, a)
	})
}

// TestSolveLowerMatchesOneRowLoop holds the four-row interleaved forward
// solve, and Append's use of it, to the one-row loop: every length through
// two full groups of four, then sizes whose tail is 3 and 0 rows.
func TestSolveLowerMatchesOneRowLoop(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 200} {
		c := &Cholesky{}
		a := randomSPD(n, r)
		if n > 0 {
			var err error
			if c, err = NewCholesky(a); err != nil {
				t.Fatal(err)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		want := referenceSolveLower(c, b)
		got := make([]float64, n)
		c.SolveLowerVecTo(got, b)
		aliased := append([]float64(nil), b...)
		c.SolveLowerVecTo(aliased, aliased)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
				math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d entry %d: %x (aliased %x), one-row loop %x", n, i, got[i], aliased[i], want[i])
			}
		}
		if n < 2 {
			continue
		}
		// Append the last row to the factor of the leading block: the new
		// row must be the one-row solve of its cross entries, and the whole
		// the full factor.
		lead := NewDense(n-1, n-1)
		for i := 0; i < n-1; i++ {
			copy(lead.Row(i), a.Row(i)[:n-1])
		}
		inc, err := NewCholesky(lead)
		if err != nil {
			t.Fatal(err)
		}
		y := referenceSolveLower(inc, a.Row(n - 1)[:n-1])
		if err := inc.Append(a.Row(n - 1)); err != nil {
			t.Fatal(err)
		}
		for i := range y {
			if math.Float64bits(inc.Row(n - 1)[i]) != math.Float64bits(y[i]) {
				t.Fatalf("n=%d: appended row entry %d is %x, one-row solve %x", n, i, inc.Row(n - 1)[i], y[i])
			}
		}
		for i := range c.d {
			if math.Float64bits(inc.d[i]) != math.Float64bits(c.d[i]) {
				t.Fatalf("n=%d: appended factor differs from the full one at %d", n, i)
			}
		}
	}
}

// maternWant is the Matérn-5/2 entry for the scaled squared distance s
// under variance v, in Eval's op order — written out here rather than read
// from the package, so the test does not share the code it checks.
func maternWant(s, v float64) float64 {
	r := math.Sqrt(5 * s)
	return v * (1 + r + 5*s/3) * math.Exp(-r)
}

// checkMatern holds MaternTo to maternWant on every entry of src, bit for
// bit, in every SIMD mode.
func checkMatern(t *testing.T, src []float64, v float64) {
	t.Helper()
	eachSIMDMode(func(mode string) {
		got := append([]float64(nil), src...)
		MaternTo(got, v)
		for j, s := range src {
			if want := maternWant(s, v); math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("%s: matern(%v, %v) [%d of %d] = %x, Eval's expression gives %x",
					mode, s, v, j, len(src), math.Float64bits(got[j]), math.Float64bits(want))
			}
		}
	})
}

// r708 is the distance whose radius √(5s) is 708, the end of the vector
// range: beyond it exp(−r) heads for math.Exp's denormal exit.
const r708 = 708 * 708 / 5.0

// maternEdges are distances on and around every exit of the vector path:
// zeros, subnormals, tiny and huge values, NaN, +Inf, a negative distance
// (NaN radius), radii on both sides of 708, where exp(−r) turns subnormal
// and where it underflows to zero, and 5s overflowing to +Inf.
var maternEdges = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-310, 0x1p-1022, 1e-300, math.NaN(), math.Inf(1), -1,
	r708, math.Nextafter(r708, 0), math.Nextafter(r708, 1e6), 707 * 707 / 5.0, 709 * 709 / 5.0,
	720 * 720 / 5.0, 745 * 745 / 5.0, 746 * 746 / 5.0, 1e300, 1e308,
	0.5, 1, 3, 17, 4000,
}

// TestMaternToMatchesEval checks more than a million distances across the
// whole vector range and past it, the edges in every lane of a block, and
// every width from 0 to 33.
func TestMaternToMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	src := make([]float64, 1<<20+3)
	for j := range src {
		switch j % 4 {
		case 0:
			rad := r.Float64() * 760 // radii past 708 included
			src[j] = rad * rad / 5
		case 1:
			src[j] = r.ExpFloat64() * 4 // where kernel rows live
		default:
			src[j] = math.Abs(r.NormFloat64()) * 300
		}
	}
	checkMatern(t, src, 1.7)
	for _, v := range []float64{1.7, 1, 0.013} {
		for _, e := range maternEdges {
			for lane := 0; lane < 4; lane++ {
				block := []float64{1.5, 0.25, 30, 0.125, 7, 11, 3, 0.5, 4}
				block[lane] = e
				block[4+(lane+1)%4] = e
				checkMatern(t, block, v)
			}
		}
	}
	for n := 0; n <= 33; n++ {
		checkMatern(t, src[:n], 1.7)
		checkMatern(t, maternEdges[:min(n, len(maternEdges))], 1.7)
	}
}

// FuzzMaternRow holds MaternTo to Eval's expression on fuzzed blocks: four
// distances and a variance the fuzzer controls bit by bit, the four placed
// at a fuzzed offset among ordinary distances.
func FuzzMaternRow(f *testing.F) {
	f.Add(0.0, 1e-310, r708, math.Inf(1), 1.7, uint8(0))
	f.Add(math.NaN(), -1.0, 720*720/5.0, 5e-324, 0.5, uint8(5))
	f.Fuzz(func(t *testing.T, a, b, c, d, v float64, shape uint8) {
		src := []float64{0.25, 3, 17.5, 120, 0.001, 55, 2, 9, 700, 300, 1}
		src = src[:4+int(shape>>2)%8]
		copy(src[int(shape&3)%(len(src)-3):], []float64{a, b, c, d})
		checkMatern(t, src, v)
	})
}
