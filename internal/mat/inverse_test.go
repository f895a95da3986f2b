package mat

import (
	"math"
	"math/rand"
	"testing"
)

// solveVec solves A x = b into a fresh vector.
func solveVec(c *Cholesky, b []float64) []float64 {
	x := make([]float64, c.n)
	c.SolveVecTo(x, b)
	return x
}

// referenceInverse is A⁻¹ by n full solves A x = e_j, column by column — the
// inverse InverseDiagTo's diagonal must reproduce bit for bit.
func referenceInverse(c *Cholesky) *Dense {
	inv := NewDense(c.n, c.n)
	col := make([]float64, c.n)
	for j := 0; j < c.n; j++ {
		clear(col)
		col[j] = 1
		c.SolveVecTo(col, col)
		for i, v := range col {
			inv.Set(i, j, v)
		}
	}
	return inv
}

// checkInverseDiag holds InverseDiagTo to the reference inverse's diagonal in
// every SIMD mode, writing over a stale destination.
func checkInverseDiag(t *testing.T, c *Cholesky) {
	t.Helper()
	want := referenceInverse(c)
	eachSIMDMode(func(mode string) {
		got := make([]float64, c.n)
		for i := range got {
			got[i] = math.NaN()
		}
		c.InverseDiagTo(got)
		for k, v := range got {
			if math.Float64bits(v) != math.Float64bits(want.At(k, k)) {
				t.Fatalf("n=%d %s: diagonal entry %d is %x, the full inverse's %x", c.n, mode, k, v, want.At(k, k))
			}
		}
	})
}

// TestInverseDiagMatchesInverse checks every size from 1 to 70 — on both
// sides of the lane group (8), the block (16) and several blocks — and two
// long factors, on well- and badly-conditioned matrices.
func TestInverseDiagMatchesInverse(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sizes := []int{129, 200}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		c, err := NewCholesky(randomSPD(n, r))
		if err != nil {
			t.Fatal(err)
		}
		checkInverseDiag(t, c)
	}
	// A Gram matrix of near-duplicate points with a small ridge: the inverse
	// spans many orders of magnitude, as a GP's kernel matrix does.
	for _, n := range []int{17, 64, 90} {
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := float64(i/3-j/3) / 7
				a.Set(i, j, math.Exp(-d*d))
			}
			a.Set(i, i, a.At(i, i)+1e-5)
		}
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		checkInverseDiag(t, c)
	}
}

// TestGrowMatchesFactor grows factors from empty by assorted panel widths
// over a matrix whose columns are written only just before each panel (the
// rest hold NaN), and requires Factor's bits; a panel that fails keeps the
// leading factor.
func TestGrowMatchesFactor(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 130} {
		a := randomSPD(n, r)
		want, wantErr := referenceFactor(a)
		if wantErr != nil {
			t.Fatal(wantErr)
		}
		for _, widths := range [][]int{{1}, {3}, {16}, {17}, {64}, {5, 16, 40, 1}} {
			eachSIMDMode(func(mode string) {
				staged := NewDense(n, n)
				for i := range staged.data {
					staged.data[i] = math.NaN()
				}
				var c Cholesky
				for k := 0; c.N() < n; k++ {
					i0 := c.N()
					w := min(widths[k%len(widths)], n-i0)
					for row := 0; row < i0+w; row++ {
						copy(staged.Row(row)[i0:i0+w], a.Row(row)[i0:i0+w])
					}
					if err := c.Grow(staged, w); err != nil {
						t.Fatalf("n=%d widths %v %s: %v", n, widths, mode, err)
					}
				}
				for i := range want {
					if math.Float64bits(c.d[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d widths %v %s: packed entry %d is %x, reference %x", n, widths, mode, i, c.d[i], want[i])
					}
				}
			})
		}
		if n < 17 {
			continue
		}
		// Fail at a pivot past the first 16 rows: growing by 16 keeps them,
		// growing on from there fails and keeps them still.
		b := a.Clone()
		spoil(b, 16+(n-16)/2, 0.5)
		var c Cholesky
		if err := c.Grow(b, 16); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := c.Grow(b, n-16); err == nil || c.N() != 16 || len(c.d) != 16*17/2 {
			t.Fatalf("n=%d: failed grow returned %v and left %d rows (%d entries)", n, err, c.N(), len(c.d))
		}
		for i := range c.d {
			if math.Float64bits(c.d[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: failed grow changed kept entry %d", n, i)
			}
		}
	}
}
