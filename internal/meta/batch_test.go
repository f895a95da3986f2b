package meta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
)

func metaBatchHistory(n, dim int, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	var h bo.History
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = r.Float64()
			s += (x[d] - 0.4) * (x[d] - 0.4)
		}
		h = append(h, bo.Observation{
			Theta: x,
			Res:   50 + 30*s + r.NormFloat64(),
			Tps:   10000 - 500*s + 10*r.NormFloat64(),
			Lat:   5 + s + 0.05*r.NormFloat64(),
		})
	}
	return h
}

// TestEnsemblePredictBatchBitIdentical pins the ensemble batch path to the
// point-wise Eq. 6/7 combination, across weight schemas: zero-weight learners
// skipped, target-only variance, weighted-variance ablation, and the
// no-target static bootstrap.
func TestEnsemblePredictBatchBitIdentical(t *testing.T) {
	var base []*BaseLearner
	for i := 0; i < 4; i++ {
		bl, err := NewBaseLearnerSparse(fmt.Sprintf("t%d", i), "w", "A", nil,
			metaBatchHistory(20, 3, int64(i+1)), 3, int64(i+1), gp.SparseConfig{})
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, bl)
	}
	target, err := NewBaseLearnerSparse("target", "w", "A", nil, metaBatchHistory(15, 3, 99), 3, 99, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}

	X := make([][]float64, 30)
	r := rand.New(rand.NewSource(5))
	for j := range X {
		X[j] = []float64{r.Float64(), r.Float64(), r.Float64()}
	}

	check := func(t *testing.T, e *Ensemble) {
		t.Helper()
		var post bo.BatchPosterior
		e.PredictBatch(X, &post)
		for _, m := range bo.Metrics {
			for j, x := range X {
				wm, wv := e.Predict(m, x)
				if math.Float64bits(post.Mu[m][j]) != math.Float64bits(wm) ||
					math.Float64bits(post.Var[m][j]) != math.Float64bits(wv) {
					t.Fatalf("metric %v candidate %d: batch (%x,%x) != point (%x,%x)",
						m, j, post.Mu[m][j], post.Var[m][j], wm, wv)
				}
			}
		}
	}

	cases := []struct {
		name string
		e    *Ensemble
	}{
		{"mixed-weights", NewEnsemble(base, target, []float64{0.3, 0, 0.2, 0, 0.5})},
		{"target-only", NewEnsemble(base, target, []float64{0, 0, 0, 0, 1})},
		{"no-target", NewEnsemble(base, nil, []float64{0.4, 0.1, 0.25, 0.25, 0})},
		{"weighted-variance", NewEnsemble(base, target, []float64{0.3, 0.1, 0.2, 0.1, 0.3}).WithWeightedVariance()},
		{"zero-total", NewEnsemble(base, target, []float64{0, 0, 0, 0, 0})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { check(t, tc.e) })
	}
}

// TestBaseLearnerPredictBatch checks the delegation path.
func TestBaseLearnerPredictBatch(t *testing.T) {
	bl, err := NewBaseLearnerSparse("t", "w", "A", nil, metaBatchHistory(12, 2, 3), 2, 3, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	X := [][]float64{{0.2, 0.8}, {0.5, 0.5}}
	var post bo.BatchPosterior
	bl.PredictBatch(X, &post)
	for _, m := range bo.Metrics {
		for j, x := range X {
			wm, wv := bl.Predict(m, x)
			if post.Mu[m][j] != wm || post.Var[m][j] != wv {
				t.Fatalf("metric %v candidate %d mismatch", m, j)
			}
		}
	}
}
