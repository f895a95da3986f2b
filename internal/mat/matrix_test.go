package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMulIdentity(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	id := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	got := Mul(a, id)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if got.At(i, j) != a.At(i, j) {
				t.Fatalf("A*I != A at (%d,%d): %v vs %v", i, j, got.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	got := Mul(a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if got.data[i] != w {
			t.Fatalf("Mul wrong at %d: got %v want %v", i, got.data[i], w)
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := MulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec wrong: %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	r, c := at.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("transpose dims %dx%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

// randomSPD builds an SPD matrix A = BᵀB + n*I.
func randomSPD(n int, rng *rand.Rand) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := Mul(b.Transpose(), b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := randomSPD(n, rng)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		l := ch.L()
		rec := Mul(l, l.Transpose())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(rec.At(i, j), a.At(i, j), 1e-8*float64(n)) {
					t.Fatalf("n=%d: LLᵀ != A at (%d,%d): %v vs %v", n, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 10, 40} {
		a := randomSPD(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := MulVec(a, x)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := solveVec(ch, b)
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-7) {
				t.Fatalf("n=%d: solve mismatch at %d: %v vs %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	if _, err := NewCholesky(NewDenseData(1, 2, []float64{1, 2})); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// diag(2, 3, 4): logdet = log(24)
	a := NewDense(3, 3)
	a.Set(0, 0, 2)
	a.Set(1, 1, 3)
	a.Set(2, 2, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(ch.LogDet(), math.Log(24), 1e-12) {
		t.Fatalf("logdet: got %v want %v", ch.LogDet(), math.Log(24))
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSPD(8, rng)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := referenceInverse(ch)
	prod := Mul(a, inv)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(prod.At(i, j), want, 1e-8) {
				t.Fatalf("A*A⁻¹ not identity at (%d,%d): %v", i, j, prod.At(i, j))
			}
		}
	}
}

// Property: solving A x = b then multiplying back recovers b, for random SPD A.
func TestQuickCholeskyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(n, rng)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64() * 10
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := solveVec(ch, b)
		back := MulVec(a, x)
		for i := range b {
			if !almostEqual(back[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and linear in the first argument.
func TestQuickDot(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if !almostEqual(Dot(a, b), Dot(b, a), 1e-12) {
			return false
		}
		two := make([]float64, n)
		for i := range a {
			two[i] = 2 * a[i]
		}
		return almostEqual(Dot(two, b), 2*Dot(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	assertPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanic("mul", func() { Mul(NewDense(2, 3), NewDense(2, 3)) })
	assertPanic("mulvec", func() { MulVec(NewDense(2, 3), []float64{1}) })
	assertPanic("dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	assertPanic("data", func() { NewDenseData(2, 2, []float64{1}) })
}
