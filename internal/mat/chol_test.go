package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCholeskyAppendMatchesFullFactor checks the incremental invariant the
// GP layer relies on: growing a factorization row by row yields bit-identical
// packed data to factoring the full matrix from scratch.
func TestCholeskyAppendMatchesFullFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 3, 8, 30} {
		a := randomSPD(n, rng)
		full, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}

		// Start from the leading 1x1 block and append the remaining rows.
		inc, err := NewCholesky(NewDenseData(1, 1, []float64{a.At(0, 0)}))
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < n; k++ {
			row := make([]float64, k+1)
			for j := 0; j <= k; j++ {
				row[j] = a.At(k, j)
			}
			if err := inc.Append(row); err != nil {
				t.Fatalf("n=%d append %d: %v", n, k, err)
			}
		}
		if inc.N() != n {
			t.Fatalf("n=%d: incremental dimension %d", n, inc.N())
		}
		for i := range full.d {
			if full.d[i] != inc.d[i] {
				t.Fatalf("n=%d: packed factor differs at %d: %v vs %v", n, i, full.d[i], inc.d[i])
			}
		}
	}
}

func TestCholeskyAppendRejectsNonPD(t *testing.T) {
	// A = [[1, 2], [2, 1]] is indefinite; appending (2, 1) to the 1x1 factor
	// of [1] must fail and leave the factor usable.
	c, err := NewCholesky(NewDenseData(1, 1, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append([]float64{2, 1}); err == nil {
		t.Fatal("expected error appending an indefinite border")
	}
	if c.N() != 1 || c.L().At(0, 0) != 1 {
		t.Fatal("failed append must leave the factor unchanged")
	}
	if err := c.Append([]float64{1}); err == nil {
		t.Fatal("expected error for wrong row length")
	}
}

func TestCholeskyFactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomSPD(12, rng)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	before := &c.d[0]
	if err := c.Factor(randomSPD(12, rng)); err != nil {
		t.Fatal(err)
	}
	if &c.d[0] != before {
		t.Fatal("same-size refactor should reuse packed storage")
	}
	// A failed refactor empties the factor rather than leaving stale data.
	if err := c.Factor(NewDenseData(2, 2, []float64{1, 2, 2, 1})); err == nil {
		t.Fatal("expected not-PD error")
	}
	if c.N() != 0 {
		t.Fatal("failed factor must be empty")
	}
}

// TestCholAppendReservedAllocFree pins the pooled append path
// BenchmarkCholAppend measures: once capacity is Reserved, a Reset +
// append-to-n session performs zero heap allocations, and Reset/Reserve
// preserve both the packed contents and the factor's correctness.
func TestCholAppendReservedAllocFree(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(17))
	a := randomSPD(n, rng)
	rows := make([][]float64, n)
	for k := 0; k < n; k++ {
		rows[k] = make([]float64, k+1)
		for j := 0; j <= k; j++ {
			rows[k][j] = a.At(k, j)
		}
	}
	var c Cholesky
	c.Reserve(n)
	allocs := testing.AllocsPerRun(10, func() {
		c.Reset()
		for k := 0; k < n; k++ {
			if err := c.Append(rows[k]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("reserved append session allocates %.0f times, want 0", allocs)
	}

	// Reserve on a live factor must keep its contents (it may reallocate).
	want, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	c.Reserve(4 * n)
	if c.N() != n {
		t.Fatalf("Reserve changed dimension to %d", c.N())
	}
	for i := range want.d {
		if c.d[i] != want.d[i] {
			t.Fatalf("packed factor differs at %d after Reserve", i)
		}
	}
}

// Property: the solves agree with the one-row loop and with themselves when
// dst aliases b.
func TestQuickSolveToVariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randomSPD(n, rng)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		wantLower := referenceSolveLower(c, b)
		wantFull := solveVec(c, b)

		dst := make([]float64, n)
		c.SolveLowerVecTo(dst, b)
		for i := range dst {
			if dst[i] != wantLower[i] {
				return false
			}
		}
		aliased := append([]float64(nil), b...)
		c.SolveVecTo(aliased, aliased)
		for i := range aliased {
			if aliased[i] != wantFull[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
