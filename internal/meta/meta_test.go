package meta

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bo"
	"repro/internal/gp"
)

// synthHistory samples a 1-D task whose res surface is scale*(x-opt)² + off,
// with tps/lat surfaces tied to it.
func synthHistory(n int, opt, scale, off float64, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	var h bo.History
	for i := 0; i < n; i++ {
		x := float64(i)/float64(n-1) + 0.001*r.NormFloat64()
		res := scale*(x-opt)*(x-opt) + off
		h = append(h, bo.Observation{
			Theta: []float64{x},
			Res:   res,
			Tps:   1000 - res*2,
			Lat:   10 + res*0.1,
		})
	}
	return h
}

func mustLearner(t *testing.T, id string, mf []float64, h bo.History, seed int64) *BaseLearner {
	t.Helper()
	b, err := NewBaseLearnerSparse(id, id, "A", mf, h, 1, seed, gp.SparseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEpanechnikov(t *testing.T) {
	if Epanechnikov(0) != 0.75 {
		t.Fatalf("γ(0)=%v", Epanechnikov(0))
	}
	if Epanechnikov(1) != 0 || Epanechnikov(1.5) != 0 || Epanechnikov(-2) != 0 {
		t.Fatal("kernel should vanish outside |t|<=1")
	}
	if !(Epanechnikov(0.2) > Epanechnikov(0.8)) {
		t.Fatal("kernel should decrease in |t|")
	}
}

func TestNewBaseLearnerErrors(t *testing.T) {
	if _, err := NewBaseLearnerSparse("x", "w", "h", nil, nil, 1, 1, gp.SparseConfig{}); err == nil {
		t.Fatal("expected error for empty history")
	}
	h := synthHistory(5, 0.5, 10, 0, 1)
	if _, err := NewBaseLearnerSparse("x", "w", "h", nil, h, 3, 1, gp.SparseConfig{}); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestStaticWeights(t *testing.T) {
	h := synthHistory(10, 0.5, 10, 0, 1)
	near := mustLearner(t, "near", []float64{0.5, 0.5}, h, 1)
	far := mustLearner(t, "far", []float64{0.9, 0.1}, h, 2)
	veryFar := mustLearner(t, "veryfar", []float64{0, 1}, h, 3)
	target := []float64{0.45, 0.55}

	w := StaticWeights([]*BaseLearner{near, far, veryFar}, target, false, 0.35)
	if len(w) != 4 {
		t.Fatalf("weights len %d", len(w))
	}
	if !(w[0] > w[1]) {
		t.Fatalf("nearer workload should weigh more: %v", w)
	}
	if w[2] != 0 {
		t.Fatalf("beyond bandwidth should be zero: %v", w[2])
	}
	if w[3] != 0 {
		t.Fatal("unfitted target must have zero weight")
	}
	w = StaticWeights([]*BaseLearner{near}, target, true, 0)
	if w[1] != 0.75 {
		t.Fatalf("fitted target weight should be γ(0): %v", w[1])
	}
	// Mismatched meta-feature dimensions are maximally distant.
	w = StaticWeights([]*BaseLearner{near}, []float64{1}, false, 0.35)
	if w[0] != 0 {
		t.Fatal("dimension mismatch should zero the weight")
	}
}

func TestRankingLoss(t *testing.T) {
	if got := RankingLoss([]float64{1, 2, 3}, []float64{10, 20, 30}); got != 0 {
		t.Fatalf("perfect ordering loss %d", got)
	}
	// Full reversal: every off-diagonal ordered pair misranks (n²-n = 6).
	if got := RankingLoss([]float64{3, 2, 1}, []float64{1, 2, 3}); got != 6 {
		t.Fatalf("reversed loss %d, want 6", got)
	}
	// One swapped adjacent pair misranks 2 ordered pairs.
	if got := RankingLoss([]float64{2, 1, 3}, []float64{1, 2, 3}); got != 2 {
		t.Fatalf("single swap loss %d, want 2", got)
	}
}

// Property: ranking loss is invariant to positive affine transforms of the
// predictions — the scale-free similarity the paper relies on for hardware
// transfer.
func TestQuickRankingLossScaleInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		pred := make([]float64, n)
		truth := make([]float64, n)
		scaled := make([]float64, n)
		a := 0.1 + r.Float64()*10
		b := r.NormFloat64() * 100
		for i := range pred {
			pred[i] = r.NormFloat64()
			truth[i] = r.NormFloat64()
			scaled[i] = a*pred[i] + b
		}
		return RankingLoss(pred, truth) == RankingLoss(scaled, truth)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicWeightsPreferSimilarTask(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Target task: optimum at 0.3. Similar history: same optimum but 50x
	// scale and shifted (different hardware). Dissimilar: optimum at 0.9.
	targetHist := synthHistory(8, 0.3, 10, 5, 1)
	similar := mustLearner(t, "similar", nil, synthHistory(30, 0.3, 500, 300, 2), 2)
	dissimilar := mustLearner(t, "dissimilar", nil, synthHistory(30, 0.9, 10, 5, 3), 3)
	target := mustLearner(t, "target", nil, targetHist, 4)

	w := DynamicWeightsOpts([]*BaseLearner{similar, dissimilar}, target, DynamicOptions{Samples: 200}, r)
	sum := 0.0
	for _, wi := range w {
		sum += wi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights must sum to 1: %v", w)
	}
	if !(w[0] > w[1]) {
		t.Fatalf("similar task should outweigh dissimilar despite 50x scale: %v", w)
	}
}

func TestDynamicWeightsFewObservations(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := mustLearner(t, "b", nil, synthHistory(10, 0.5, 10, 0, 1), 1)
	target := mustLearner(t, "t", nil, synthHistory(4, 0.5, 10, 0, 2)[:1], 2)
	w := DynamicWeightsOpts([]*BaseLearner{b}, target, DynamicOptions{Samples: 50}, r)
	if w[1] != 1 {
		t.Fatalf("with <2 target obs all trust goes to target: %v", w)
	}
}

func TestDynamicWeightsNegativeTransferGuard(t *testing.T) {
	// With enough target observations and only misleading histories, the
	// target base-learner should dominate — the paper's "negative transfer"
	// protection (its weight can grow to 100%).
	r := rand.New(rand.NewSource(9))
	target := mustLearner(t, "t", nil, synthHistory(25, 0.3, 10, 0, 5), 5)
	bad1 := mustLearner(t, "b1", nil, synthHistory(30, 0.95, 10, 0, 6), 6)
	bad2 := mustLearner(t, "b2", nil, synthHistory(30, 0.05, 10, 0, 7), 7)
	w := DynamicWeightsOpts([]*BaseLearner{bad1, bad2}, target, DynamicOptions{Samples: 200}, r)
	if w[2] < 0.5 {
		t.Fatalf("target should dominate misleading histories: %v", w)
	}
}

func TestMeanRankingLossOrdering(t *testing.T) {
	targetHist := synthHistory(10, 0.3, 10, 0, 1)
	close1 := mustLearner(t, "c1", nil, synthHistory(30, 0.35, 10, 0, 2), 2)
	far1 := mustLearner(t, "f1", nil, synthHistory(30, 0.8, 10, 0, 3), 3)
	losses := MeanRankingLossPct([]*BaseLearner{close1, far1}, targetHist)
	if !(losses[0] < losses[1]) {
		t.Fatalf("closer optimum should have lower ranking loss: %v", losses)
	}
	for _, l := range losses {
		if l < 0 || l > 100 {
			t.Fatalf("loss out of range: %v", losses)
		}
	}
	// Degenerate history yields zeros.
	z := MeanRankingLossPct([]*BaseLearner{close1}, targetHist[:1])
	if z[0] != 0 {
		t.Fatal("short history should give zero loss")
	}
}

func TestEnsemblePrediction(t *testing.T) {
	b1 := mustLearner(t, "b1", nil, synthHistory(15, 0.3, 10, 0, 1), 1)
	b2 := mustLearner(t, "b2", nil, synthHistory(15, 0.7, 10, 0, 2), 2)
	target := mustLearner(t, "t", nil, synthHistory(6, 0.3, 10, 0, 3), 3)

	// Weighted mean (Eq. 6).
	e := NewEnsemble([]*BaseLearner{b1, b2}, target, []float64{1, 1, 2})
	x := []float64{0.4}
	mu, v := e.Predict(bo.Res, x)
	m1, _ := b1.Predict(bo.Res, x)
	m2, _ := b2.Predict(bo.Res, x)
	mt, vt := target.Predict(bo.Res, x)
	want := (m1 + m2 + 2*mt) / 4
	if math.Abs(mu-want) > 1e-9 {
		t.Fatalf("ensemble mean %v want %v", mu, want)
	}
	// Variance comes from the target only (Eq. 7).
	if math.Abs(v-vt) > 1e-12 {
		t.Fatalf("ensemble variance %v want target's %v", v, vt)
	}

	// Weights normalize.
	w := e.Weights()
	if math.Abs(w[0]-0.25) > 1e-9 || math.Abs(w[2]-0.5) > 1e-9 {
		t.Fatalf("normalized weights: %v", w)
	}
}

func TestEnsembleFallbacks(t *testing.T) {
	b1 := mustLearner(t, "b1", nil, synthHistory(15, 0.3, 10, 0, 1), 1)
	// No target, zero weights -> uniform over bases.
	e := NewEnsemble([]*BaseLearner{b1}, nil, []float64{0, 5})
	mu, v := e.Predict(bo.Res, []float64{0.5})
	m1, v1 := b1.Predict(bo.Res, []float64{0.5})
	if mu != m1 || v != v1 {
		t.Fatalf("no-target ensemble should mirror the base: (%v,%v) vs (%v,%v)", mu, v, m1, v1)
	}
	// Target present, zero weights -> trust target.
	target := mustLearner(t, "t", nil, synthHistory(6, 0.3, 10, 0, 3), 3)
	e = NewEnsemble([]*BaseLearner{b1}, target, []float64{0, 0})
	mu, _ = e.Predict(bo.Res, []float64{0.5})
	mt, _ := target.Predict(bo.Res, []float64{0.5})
	if mu != mt {
		t.Fatalf("zero-weight ensemble should trust target: %v vs %v", mu, mt)
	}
	// Degenerate: no learners at all -> prior.
	e = NewEnsemble(nil, nil, []float64{0})
	mu, v = e.Predict(bo.Res, []float64{0.5})
	if mu != 0 || v != 1 {
		t.Fatalf("empty ensemble prior: (%v,%v)", mu, v)
	}
}

func TestEnsembleWeightsLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on weight length mismatch")
		}
	}()
	NewEnsemble(nil, nil, []float64{1, 2})
}

func TestRescaledConstraints(t *testing.T) {
	// λ'_u = L_M(θ_d): a point predicted better than default must be
	// predicted feasible under the re-scaled constraints (Section 6.1 proof).
	target := mustLearner(t, "t", nil, synthHistory(12, 0.3, 10, 0, 3), 3)
	e := NewEnsemble(nil, target, []float64{1})
	thetaD := []float64{0.9} // poor default: high res, low tps
	c := e.RescaledConstraints(thetaD)
	muT, _ := e.Predict(bo.Tps, thetaD)
	muL, _ := e.Predict(bo.Lat, thetaD)
	if c.LambdaTps != muT || c.LambdaLat != muL {
		t.Fatal("rescaled constraints should be the meta-learner's prediction at default")
	}
	// Near the optimum, tps is predicted above λ' and lat below λ'.
	good := []float64{0.3}
	gT, _ := e.Predict(bo.Tps, good)
	gL, _ := e.Predict(bo.Lat, good)
	if !(gT > c.LambdaTps && gL < c.LambdaLat) {
		t.Fatalf("optimum should be predicted feasible: tps %v vs %v, lat %v vs %v",
			gT, c.LambdaTps, gL, c.LambdaLat)
	}
}
