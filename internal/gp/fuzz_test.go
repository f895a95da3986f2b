package gp

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPredictBatch is the differential fuzz target for the batched inference
// path: for arbitrary training sets, randomized hyperparameters and batch
// sizes — including the 0 and 1 edge cases — the batch posterior must equal
// the point-wise posterior bit for bit. This is the contract that lets the
// acquisition optimizer switch freely between the two paths without
// perturbing a single tuning trace.
func FuzzPredictBatch(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(3), uint8(16))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(40), uint8(8), uint8(1))
	f.Add(int64(4), uint8(25), uint8(12), uint8(65))
	f.Add(int64(-9), uint8(0), uint8(5), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, dimRaw, mRaw uint8) {
		n := int(nRaw)%48 + 1
		dim := int(dimRaw)%16 + 1
		m := int(mRaw) % 80 // includes 0 and 1
		r := rand.New(rand.NewSource(seed))

		g := New(NewMatern52(0.05+3*r.Float64(), 0.05+2*r.Float64()), 1e-4+0.2*r.Float64())
		x, y := fuzzTraining(n, dim, r)
		if err := g.Fit(x, y); err != nil {
			t.Skip("not positive definite for this draw")
		}

		X := make([][]float64, m)
		for j := range X {
			X[j] = make([]float64, dim)
			for d := range X[j] {
				// Mix in-cube candidates with exact copies of training
				// points (zero distance exercises the prior terms).
				if r.Intn(8) == 0 {
					copy(X[j], x[r.Intn(n)])
					break
				}
				X[j][d] = r.Float64()
			}
		}

		mu := make([]float64, m)
		va := make([]float64, m)
		g.PredictBatch(X, mu, va)
		for j, xq := range X {
			wm, wv := g.Predict(xq)
			if math.Float64bits(mu[j]) != math.Float64bits(wm) ||
				math.Float64bits(va[j]) != math.Float64bits(wv) {
				t.Fatalf("seed=%d n=%d dim=%d m=%d candidate %d: batch (%x, %x) != point (%x, %x)",
					seed, n, dim, m, j, mu[j], va[j], wm, wv)
			}
		}
	})
}

func fuzzTraining(n, dim int, r *rand.Rand) ([][]float64, []float64) {
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
