package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/rng"
)

const (
	historyBenchDim   = 8
	historyBenchCands = 64
	// historyBenchBudget is the warm-iteration hyperparameter search budget,
	// matching the core session's warm iterations.
	historyBenchBudget = 6
)

// historyBenchScenario is one long-history tuning task: a noisy quadratic
// response over [0,1]^dim with a known optimum, an observation track long
// enough to continue for iters more steps, and a fixed candidate block for
// recommendations. Both arms of HistoryScale share one scenario, so their
// wall-clock and incumbent numbers are directly comparable.
type historyBenchScenario struct {
	h     bo.History
	cands [][]float64
	truth func(x []float64) float64
}

func newHistoryBenchScenario(n, extra int, seed int64) *historyBenchScenario {
	r := rng.Derive(seed, fmt.Sprintf("history-bench:%d", n))
	opt := make([]float64, historyBenchDim)
	for d := range opt {
		opt[d] = r.Float64()
	}
	scale := 5 + 10*r.Float64()
	off := 20 * r.Float64()
	truth := func(x []float64) float64 {
		s := 0.0
		for d, v := range x {
			dx := v - opt[d]
			s += dx * dx
		}
		return scale*s + off
	}
	h := make(bo.History, 0, n+extra)
	for i := 0; i < n+extra; i++ {
		x := make([]float64, historyBenchDim)
		for d := range x {
			x[d] = r.Float64()
		}
		res := truth(x) + 0.05*r.NormFloat64()
		h = append(h, bo.Observation{
			Theta: x,
			Res:   res,
			Tps:   1000 - 2*res,
			Lat:   10 + 0.1*res,
		})
	}
	cands := make([][]float64, historyBenchCands)
	for i := range cands {
		x := make([]float64, historyBenchDim)
		for d := range x {
			x[d] = r.Float64()
		}
		cands[i] = x
	}
	return &historyBenchScenario{h: h, cands: cands, truth: truth}
}

// runHistoryArm continues the scenario for iters model updates on one
// inference mode and reports the mean per-iteration model-update wall-clock,
// the true resource value of the final recommendation (the candidate with
// the lowest posterior-mean resource usage), and the sparse state.
func (sc *historyBenchScenario) runHistoryArm(n, iters int, seed int64, sparse bool) (nsPerIter, best float64, st gp.SparseStats, err error) {
	tri := bo.NewTriGP(historyBenchDim, seed)
	if sparse {
		tri.SetSparse(gp.DefaultSparseConfig())
	}
	// Initial conditioning on the accumulated history is not timed: the
	// measured quantity is the steady per-iteration model update a session
	// pays once its history is already long.
	if err = tri.FitWithBudget(sc.h[:n], 0); err != nil {
		return 0, 0, st, err
	}
	t0 := time.Now()
	for i := 1; i <= iters; i++ {
		if err = tri.FitWithBudget(sc.h[:n+i], historyBenchBudget); err != nil {
			return 0, 0, st, err
		}
	}
	nsPerIter = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	var post bo.BatchPosterior
	tri.PredictBatch(sc.cands, &post)
	bi := 0
	for i, mu := range post.Mu[bo.Res] {
		if mu < post.Mu[bo.Res][bi] {
			bi = i
		}
	}
	best = sc.truth(sc.cands[bi])
	return nsPerIter, best, tri.SparseStats(), nil
}

// HistoryScale measures the per-iteration surrogate model-update cost of
// exact versus subset-of-data sparse inference as the observation history
// grows (restune-bench -history-size 256,1000,2000) — the CLI counterpart
// of BenchmarkGPFitLongHistory, extended with the recommendation each arm
// lands on. Both arms continue the same history with the same seeds; the
// final-incumbent columns show the anchor subset recommending essentially
// the configuration the exact posterior does while the wall-clock column
// collapses from cubic to capped.
func HistoryScale(sizes []int, seed int64, iters int) (*Report, error) {
	if iters <= 0 {
		iters = 3
	}
	rep := newReport("history", "Long-history scaling: exact vs sparse surrogate model update")
	rep.Addf("(dim=%d, %d continuation iterations per arm, search budget %d, sparse config %+v)",
		historyBenchDim, iters, historyBenchBudget, gp.DefaultSparseConfig())
	rep.Addf("%8s %16s %16s %8s %8s %10s %12s %12s",
		"n", "exact ns/iter", "sparse ns/iter", "ratio", "anchors", "reselects", "exact best", "sparse best")
	var exactNs, sparseNs, ratios, exactBest, sparseBest []float64
	for _, n := range sizes {
		sc := newHistoryBenchScenario(n, iters, seed)
		ens, eb, _, err := sc.runHistoryArm(n, iters, seed, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: exact arm at n=%d: %w", n, err)
		}
		sns, sb, st, err := sc.runHistoryArm(n, iters, seed, true)
		if err != nil {
			return nil, fmt.Errorf("experiments: sparse arm at n=%d: %w", n, err)
		}
		rep.Addf("%8d %16.0f %16.0f %8.3f %8d %10d %12.3f %12.3f",
			n, ens, sns, sns/ens, st.Anchors, st.Reselects, eb, sb)
		exactNs = append(exactNs, ens)
		sparseNs = append(sparseNs, sns)
		ratios = append(ratios, sns/ens)
		exactBest = append(exactBest, eb)
		sparseBest = append(sparseBest, sb)
	}
	if len(ratios) > 0 {
		worst := 0.0
		for _, r := range ratios {
			worst = math.Max(worst, r)
		}
		rep.Addf("worst sparse/exact ratio: %.3f", worst)
	}
	rep.AddSeries("exact_ns_per_iter", exactNs)
	rep.AddSeries("sparse_ns_per_iter", sparseNs)
	rep.AddSeries("ratio", ratios)
	rep.AddSeries("exact_best", exactBest)
	rep.AddSeries("sparse_best", sparseBest)
	return rep, nil
}
