package gp

import (
	"math"
	"testing"
)

// TestFitLifecycleOneHistory walks a single GP through every transition of
// the factor-maintenance rule in one growing history — exact append, a
// weight decay, the threshold crossing, sparse appends, the append budget
// expiring, a decay under sparse conditioning, and SetSparse back to exact —
// and asserts at each fit (i) whether the factor was extended or rebuilt and
// (ii) that Predict, LOO and the marginal likelihood carry the bits of a
// freshly constructed GP on the same inputs, weights and configuration.
//
// Which operation ran is read off sizes: a rebuild refills the kernel-matrix
// scratch, so it equals the factor's size afterwards, while an append grows
// only the factor; a re-selection bumps SparseStats().Reselects and resets
// the factor to MaxAnchors.
//
// The fresh GP is fitted once wherever one Fit reproduces the training set
// (every exact step and every selection point). A sparse append conditions
// on "anchors selected earlier + the points since", which no single Fit
// selects, so there the fresh GP replays from the last selection point and
// then rebuilds its factor from scratch over that same subset
// (AdoptHyperparamsFrom on itself refactors without re-selecting).
func TestFitLifecycleOneHistory(t *testing.T) {
	cfg := defaultTestSparse(8, 6, 3)
	x, y := randPoints(18, 3, 61)
	probe, _ := randPoints(5, 3, 89)

	decay := func(w []float64) {
		for i := range w {
			w[i] = math.Max(0.05, w[i]*0.7)
		}
	}
	steps := []struct {
		name      string
		before    func(w *[]float64, n int) // weight change ahead of the fit at size n
		sparse    *SparseConfig             // reconfiguration ahead of the fit
		appended  bool
		active    bool
		reselects int
		factorN   int
	}{
		{name: "first fit", factorN: 3},
		{name: "exact append", appended: true, factorN: 4},
		{name: "exact append", appended: true, factorN: 5},
		{name: "weight decay rebuilds", factorN: 6,
			before: func(w *[]float64, n int) {
				*w = make([]float64, n-1, len(x))
				for i := range *w {
					(*w)[i] = 1
				}
				decay(*w)
			}},
		{name: "weighted append", appended: true, factorN: 7},
		{name: "append at the threshold", appended: true, factorN: 8},
		{name: "threshold crossing selects anchors", active: true, reselects: 1, factorN: 6},
		{name: "sparse append", appended: true, active: true, reselects: 1, factorN: 7},
		{name: "sparse append", appended: true, active: true, reselects: 1, factorN: 8},
		{name: "sparse append", appended: true, active: true, reselects: 1, factorN: 9},
		{name: "append budget spent re-selects", active: true, reselects: 2, factorN: 6},
		{name: "sparse append", appended: true, active: true, reselects: 2, factorN: 7},
		{name: "sparse weight decay re-selects", active: true, reselects: 3, factorN: 6,
			before: func(w *[]float64, _ int) { decay(*w) }},
		{name: "sparse append", appended: true, active: true, reselects: 3, factorN: 7},
		{name: "SetSparse zero returns to exact", reselects: 3, factorN: 17, sparse: &SparseConfig{}},
		{name: "exact append", appended: true, reselects: 3, factorN: 18},
	}

	g := New(NewMatern52(1, 0.5), 0.01)
	g.SetSparse(cfg)
	var w []float64
	lastSelect := 0
	for i, st := range steps {
		n := i + 3
		if st.before != nil {
			st.before(&w, n)
		}
		if st.sparse != nil {
			cfg = *st.sparse
			g.SetSparse(cfg)
		}
		if w != nil {
			w = append(w, 1) // the new observation enters at full weight
			g.SetObservationWeights(w[:n])
		}
		rebuilds := g.refactors
		if err := g.Fit(x[:n], y[:n]); err != nil {
			t.Fatalf("n=%d (%s): %v", n, st.name, err)
		}

		stats := g.SparseStats()
		if stats.Active != st.active || stats.Reselects != st.reselects {
			t.Fatalf("n=%d (%s): sparse state %+v, want active=%v reselects=%d",
				n, st.name, stats, st.active, st.reselects)
		}
		if got := g.chol.N(); got != st.factorN || len(g.tx) != st.factorN {
			t.Fatalf("n=%d (%s): factor covers %d points (view of %d), want %d",
				n, st.name, got, len(g.tx), st.factorN)
		}
		if appended := g.refactors == rebuilds; appended != st.appended {
			t.Fatalf("n=%d (%s): appended=%v, want %v", n, st.name, appended, st.appended)
		}
		if !st.appended {
			lastSelect = n
		}

		fresh := New(NewMatern52(1, 0.5), 0.01)
		fresh.SetSparse(cfg)
		from := n
		if st.appended && st.active {
			from = lastSelect
		}
		for k := from; k <= n; k++ {
			if w != nil {
				fresh.SetObservationWeights(append([]float64(nil), w[:k]...))
			}
			if err := fresh.Fit(x[:k], y[:k]); err != nil {
				t.Fatalf("n=%d (%s): fresh fit at %d: %v", n, st.name, k, err)
			}
		}
		if from < n {
			if err := fresh.AdoptHyperparamsFrom(fresh); err != nil {
				t.Fatalf("n=%d (%s): fresh refactor: %v", n, st.name, err)
			}
		}
		for _, p := range probe {
			mg, vg := g.Predict(p)
			mf, vf := fresh.Predict(p)
			if math.Float64bits(mg) != math.Float64bits(mf) || math.Float64bits(vg) != math.Float64bits(vf) {
				t.Fatalf("n=%d (%s): posterior (%x,%x) differs from a fresh GP's (%x,%x)",
					n, st.name, mg, vg, mf, vf)
			}
		}
		lmG, lvG := g.LOO()
		lmF, lvF := fresh.LOO()
		if len(lmG) != n || len(lmF) != n {
			t.Fatalf("n=%d (%s): LOO spans %d/%d entries, want %d", n, st.name, len(lmG), len(lmF), n)
		}
		for j := range lmG {
			if math.Float64bits(lmG[j]) != math.Float64bits(lmF[j]) || math.Float64bits(lvG[j]) != math.Float64bits(lvF[j]) {
				t.Fatalf("n=%d (%s): LOO entry %d differs from a fresh GP's", n, st.name, j)
			}
		}
		if g.LogMarginalLikelihood() != fresh.LogMarginalLikelihood() {
			t.Fatalf("n=%d (%s): marginal likelihood differs from a fresh GP's", n, st.name)
		}
	}
}
