package bo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestMetricString(t *testing.T) {
	if Res.String() != "res" || Tps.String() != "tps" || Lat.String() != "lat" {
		t.Fatal("metric names wrong")
	}
	if Metric(9).String() != "?" {
		t.Fatal("unknown metric name")
	}
}

func TestObservationValue(t *testing.T) {
	o := Observation{Res: 1, Tps: 2, Lat: 3}
	if o.Value(Res) != 1 || o.Value(Tps) != 2 || o.Value(Lat) != 3 {
		t.Fatal("Value extraction wrong")
	}
}

func TestSLAFeasible(t *testing.T) {
	sla := SLA{LambdaTps: 100, LambdaLat: 10, Tolerance: 0.05}
	cases := []struct {
		o    Observation
		want bool
	}{
		{Observation{Tps: 100, Lat: 10}, true},
		{Observation{Tps: 96, Lat: 10.4}, true},   // within 5% tolerance
		{Observation{Tps: 94, Lat: 10}, false},    // tps too low
		{Observation{Tps: 100, Lat: 10.6}, false}, // lat too high
	}
	for i, c := range cases {
		if got := sla.Feasible(c.o); got != c.want {
			t.Fatalf("case %d: feasible=%v want %v", i, got, c.want)
		}
	}
}

func TestBestFeasible(t *testing.T) {
	sla := SLA{LambdaTps: 100, LambdaLat: 10}
	h := History{
		{Theta: []float64{0.1}, Res: 50, Tps: 120, Lat: 5},
		{Theta: []float64{0.2}, Res: 20, Tps: 90, Lat: 5}, // infeasible
		{Theta: []float64{0.3}, Res: 30, Tps: 110, Lat: 8},
	}
	best, ok := h.BestFeasible(sla)
	if !ok || best.Res != 30 {
		t.Fatalf("best feasible: %v ok=%v", best.Res, ok)
	}
	series := h.BestFeasibleByIter(sla, 99)
	want := []float64{50, 50, 30}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series[%d]=%v want %v", i, series[i], want[i])
		}
	}
	if _, ok := (History{{Res: 1, Tps: 0, Lat: 100}}).BestFeasible(sla); ok {
		t.Fatal("expected no feasible point")
	}
	empty := History{{Res: 1, Tps: 0, Lat: 100}}.BestFeasibleByIter(sla, 77)
	if empty[0] != 77 {
		t.Fatal("default not used before first feasible point")
	}
}

func TestStandardizer(t *testing.T) {
	s := NewStandardizer([]float64{2, 4, 6})
	if math.Abs(s.Mean-4) > 1e-12 {
		t.Fatalf("mean %v", s.Mean)
	}
	z := s.ApplyAll([]float64{2, 4, 6})
	if math.Abs(z[0]+z[2]) > 1e-12 || math.Abs(z[1]) > 1e-12 {
		t.Fatalf("standardized: %v", z)
	}
	// Degenerate samples keep unit scale.
	d := NewStandardizer([]float64{5, 5, 5})
	if d.Std != 1 {
		t.Fatalf("degenerate std %v", d.Std)
	}
	e := NewStandardizer(nil)
	if e.Std != 1 || e.Mean != 0 {
		t.Fatal("empty standardizer should be identity")
	}
}

// Property: Invert(Apply(v)) == v.
func TestQuickStandardizerRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * 100
		}
		s := NewStandardizer(vs)
		for _, v := range vs {
			if math.Abs(s.Invert(s.Apply(v))-v) > 1e-8 {
				return false
			}
		}
		// Standardized sample has ~zero mean, ~unit std.
		z := s.ApplyAll(vs)
		m := 0.0
		for _, x := range z {
			m += x
		}
		m /= float64(n)
		return math.Abs(m) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEIProperties(t *testing.T) {
	// Zero sigma degenerates to max(0, best-mu).
	if got := EI(5, 0, 7); got != 2 {
		t.Fatalf("EI degenerate: %v", got)
	}
	if got := EI(9, 0, 7); got != 0 {
		t.Fatalf("EI degenerate neg: %v", got)
	}
	// EI is positive with uncertainty, increasing in sigma.
	a := EI(5, 0.1, 5)
	b := EI(5, 1.0, 5)
	if a <= 0 || b <= a {
		t.Fatalf("EI monotone in sigma: %v, %v", a, b)
	}
	// EI decreases as mu rises above best.
	if EI(6, 0.5, 5) >= EI(5, 0.5, 5) {
		t.Fatal("EI should decrease in mu")
	}
}

// fixedSurrogate returns preset predictions for testing acquisitions.
type fixedSurrogate struct{ mu, v [3]float64 }

func (f fixedSurrogate) Predict(m Metric, x []float64) (float64, float64) {
	return f.mu[m], f.v[m]
}

func TestProbFeasible(t *testing.T) {
	c := Constraints{LambdaTps: 0, LambdaLat: 0}
	// Confidently feasible: tps well above 0, lat well below 0.
	s := fixedSurrogate{mu: [3]float64{0, 3, -3}, v: [3]float64{1, 0.01, 0.01}}
	if p := ProbFeasible(s, nil, c); p < 0.99 {
		t.Fatalf("confident feasible p=%v", p)
	}
	// Confidently infeasible.
	s = fixedSurrogate{mu: [3]float64{0, -3, 3}, v: [3]float64{1, 0.01, 0.01}}
	if p := ProbFeasible(s, nil, c); p > 0.01 {
		t.Fatalf("confident infeasible p=%v", p)
	}
	// On the boundary with symmetric uncertainty: p = 0.25.
	s = fixedSurrogate{mu: [3]float64{0, 0, 0}, v: [3]float64{1, 1, 1}}
	if p := ProbFeasible(s, nil, c); math.Abs(p-0.25) > 1e-9 {
		t.Fatalf("boundary p=%v want 0.25", p)
	}
}

func TestCEI(t *testing.T) {
	c := Constraints{LambdaTps: 0, LambdaLat: 0}
	feas := fixedSurrogate{mu: [3]float64{-1, 3, -3}, v: [3]float64{0.25, 0.01, 0.01}}
	infeas := fixedSurrogate{mu: [3]float64{-1, -3, 3}, v: [3]float64{0.25, 0.01, 0.01}}
	// Same improvement, feasibility gates the value (paper Eq. 5).
	if CEI(feas, nil, 0, c) <= 100*CEI(infeas, nil, 0, c) {
		t.Fatal("CEI must suppress infeasible candidates")
	}
	// Without a feasible incumbent, CEI falls back to probability of
	// feasibility.
	if got, want := CEI(feas, nil, math.NaN(), c), ProbFeasible(feas, nil, c); got != want {
		t.Fatalf("CEI bootstrap: %v want %v", got, want)
	}
}

func TestTriGPFitPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h History
	for i := 0; i < 25; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		h = append(h, Observation{
			Theta: x,
			Res:   100*x[0] + 10*x[1] + rng.NormFloat64(),
			Tps:   5000 - 1000*x[1] + 10*rng.NormFloat64(),
			Lat:   1 + x[0] + 0.01*rng.NormFloat64(),
		})
	}
	s := NewTriGP(2, 1)
	if err := s.FitWithBudget(h, 0); err != nil {
		t.Fatal(err)
	}
	if s.N() != 25 || s.Dim() != 2 {
		t.Fatal("N/Dim wrong")
	}
	// Predictions read back through the standardizer, in raw units, should
	// approximate the underlying trend.
	raw := func(m Metric, x []float64) (mu, variance float64) {
		zmu, zv := s.Predict(m, x)
		std := s.Standardizer(m)
		return std.Invert(zmu), zv * std.Std * std.Std
	}
	mu, _ := raw(Res, []float64{0.9, 0.5})
	if math.Abs(mu-95) > 15 {
		t.Fatalf("raw res prediction off: %v", mu)
	}
	mu, _ = raw(Tps, []float64{0.5, 0.0})
	if math.Abs(mu-5000) > 300 {
		t.Fatalf("raw tps prediction off: %v", mu)
	}
	// The raw-scale variance stays positive.
	if _, rv := raw(Res, []float64{0.3, 0.3}); !(rv > 0) {
		t.Fatalf("raw res variance %v, want positive", rv)
	}
	std := s.Standardizer(Res)
	// Constraint rescaling.
	c := s.RawConstraints(SLA{LambdaTps: 5000, LambdaLat: 1.5})
	if math.Abs(std.Apply(0)) > 1e9 { // smoke: standardizer available
		t.Fatal("unexpected")
	}
	if c.LambdaTps != s.Standardizer(Tps).Apply(5000) {
		t.Fatal("RawConstraints mismatch")
	}
	if err := (&TriGP{}).FitWithBudget(nil, 0); err == nil {
		t.Fatal("expected error on empty history")
	}
}

func TestOptimizeAcqFindsMaximum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	target := []float64{0.3, 0.7, 0.5}
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - target[i]
			s -= d * d
		}
		return s
	}
	got := OptimizeAcqBatch(f, nil, 3, DefaultOptimizerConfig(), nil, rng)
	for i := range target {
		if math.Abs(got[i]-target[i]) > 0.08 {
			t.Fatalf("dim %d: got %v want %v", i, got[i], target[i])
		}
	}
}

func TestOptimizeAcqIncumbents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// A needle only findable from the incumbent start.
	needle := []float64{0.123456, 0.654321}
	f := func(x []float64) float64 {
		d := 0.0
		for i := range x {
			dd := x[i] - needle[i]
			d += dd * dd
		}
		if d < 1e-6 {
			return 100
		}
		return -d
	}
	cfg := OptimizerConfig{RandomCandidates: 4, LocalStarts: 2, LocalSteps: 0, StepScale: 0.1}
	got := OptimizeAcqBatch(f, nil, 2, cfg, [][]float64{needle}, rng)
	if f(got) < 99 {
		t.Fatalf("incumbent start not used: %v", got)
	}
	// Zero probes still yields a valid point.
	x := OptimizeAcqBatch(f, nil, 2, OptimizerConfig{}, nil, rng)
	if len(x) != 2 {
		t.Fatal("empty config must still return a point")
	}
}

// Property: OptimizeAcq output is always inside the unit cube.
func TestQuickOptimizeBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		// Random scores from a stream of their own, serialized: the optimizer
		// calls an AcqFunc from several goroutines at once.
		var mu sync.Mutex
		noise := rand.New(rand.NewSource(seed + 1))
		acq := func(x []float64) float64 {
			mu.Lock()
			defer mu.Unlock()
			return noise.NormFloat64()
		}
		cfg := OptimizerConfig{RandomCandidates: 16, LocalStarts: 2, LocalSteps: 8, StepScale: 0.5}
		x := OptimizeAcqBatch(acq, nil, dim, cfg, nil, rng)
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeAcqBox covers the trust-region bounds contract: a full-cube
// box consumes the RNG stream identically to nil bounds (bit-identical
// recommendation), a proper sub-box confines the search — random probes,
// incumbent starts and local search alike — and a mis-sized box panics.
func TestOptimizeAcqBox(t *testing.T) {
	const dim = 3
	acq := func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v
		}
		return s
	}
	cfg := OptimizerConfig{RandomCandidates: 32, LocalStarts: 2, LocalSteps: 10, StepScale: 0.3}

	full := &Box{Lo: []float64{0, 0, 0}, Hi: []float64{1, 1, 1}}
	plain := OptimizeAcqBatch(acq, nil, dim, cfg, nil, rand.New(rand.NewSource(9)))
	cfgFull := cfg
	cfgFull.Bounds = full
	boxed := OptimizeAcqBatch(acq, nil, dim, cfgFull, nil, rand.New(rand.NewSource(9)))
	for d := range plain {
		if plain[d] != boxed[d] {
			t.Fatalf("full-cube bounds changed the recommendation: %x vs %x", plain, boxed)
		}
	}

	box := &Box{Lo: []float64{0.2, 0.4, 0.1}, Hi: []float64{0.5, 0.9, 0.3}}
	cfgBox := cfg
	cfgBox.Bounds = box
	incumbent := []float64{0.95, 0.05, 0.99} // outside: must be clamped in
	for seed := int64(0); seed < 20; seed++ {
		x := OptimizeAcqBatch(acq, nil, dim, cfgBox, [][]float64{incumbent}, rand.New(rand.NewSource(seed)))
		if !box.Contains(x, 1e-12) {
			t.Fatalf("seed %d: recommendation %v escaped box [%v, %v]", seed, x, box.Lo, box.Hi)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bounds dimension mismatch")
		}
	}()
	bad := cfg
	bad.Bounds = &Box{Lo: []float64{0}, Hi: []float64{1}}
	OptimizeAcqBatch(acq, nil, dim, bad, nil, rand.New(rand.NewSource(1)))
}

// TestBoxClampContains pins the Box primitives.
func TestBoxClampContains(t *testing.T) {
	b := &Box{Lo: []float64{0.2, 0.3}, Hi: []float64{0.6, 0.8}}
	got := b.Clamp([]float64{0, 1})
	if got[0] != 0.2 || got[1] != 0.8 {
		t.Fatalf("clamp = %v", got)
	}
	if !b.Contains([]float64{0.4, 0.5}, 0) {
		t.Fatal("interior point reported outside")
	}
	if b.Contains([]float64{0.61, 0.5}, 1e-6) {
		t.Fatal("exterior point reported inside")
	}
	if !b.Contains([]float64{0.6 + 1e-9, 0.5}, 1e-6) {
		t.Fatal("eps tolerance not honored")
	}
}
