package meta

import (
	"math"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
)

// TestSparseCorpusAccuracyWithinTolerance is the corpus-scale accuracy gate
// for sparse base-learner inference: over a paper-sized corpus (34 tasks,
// long histories — the repository's 34 tasks averaged ~190 observations),
// base-learners fit on a farthest-point anchor subset must rank a held-out
// target history within a small tolerance of exact base-learners, and the
// configuration each learner predicts as best must carry near-identical
// true resource usage (incumbent regret). These are the two quantities the
// meta-learner consumes — ranking losses drive the dynamic RGPE weights,
// posterior argmins drive recommendations — so bounding them bounds the
// sparse mode's end-to-end effect.
func TestSparseCorpusAccuracyWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale accuracy gate: 2x34 long-history surrogate fits")
	}
	const (
		nTasks  = 34
		metaDim = 8
		dim     = 6
		histLen = 160
		seed    = 97
	)
	sparse := gp.SparseConfig{Threshold: 96, MaxAnchors: 64, ReselectEvery: 32}

	fitAll := func(tasks []CorpusTask) []*BaseLearner {
		out := make([]*BaseLearner, len(tasks))
		for i, task := range tasks {
			bl, err := task.Fit()
			if err != nil {
				t.Fatalf("task %s: %v", task.ID, err)
			}
			out[i] = bl
		}
		return out
	}
	exact := fitAll(SyntheticCorpus(nTasks, metaDim, dim, histLen, seed))
	// The sparse arm refits the same tasks — same histories, same search
	// seeds — under the sparse configuration, so inference mode is the only
	// difference between the arms.
	sparsed := make([]*BaseLearner, nTasks)
	for i := range sparsed {
		mf, opt, scale, off, hseed := syntheticTaskParams(i, metaDim, dim, seed)
		h := syntheticQuadHistory(histLen, dim, opt, scale, off, hseed)
		bl, err := NewBaseLearnerSparse(exact[i].TaskID, exact[i].TaskID, "synth", mf, h, dim, hseed, sparse)
		if err != nil {
			t.Fatalf("task %s: %v", exact[i].TaskID, err)
		}
		sparsed[i] = bl
	}
	for i := range sparsed {
		st := sparsed[i].Surrogate.SparseStats()
		if !st.Active {
			t.Fatalf("task %s: sparse inference inactive at histLen=%d > threshold=%d",
				sparsed[i].TaskID, histLen, sparse.Threshold)
		}
	}

	// Held-out target: a task from a disjoint corpus seed, so neither arm
	// has conditioned on its history.
	target := fitAll(SyntheticCorpus(1, metaDim, dim, histLen, seed+1))[0]
	h := target.History

	le := MeanRankingLossPct(exact, h)
	ls := MeanRankingLossPct(sparsed, h)
	var meanGap, maxGap float64
	for i := range le {
		gap := math.Abs(ls[i] - le[i])
		meanGap += gap
		if gap > maxGap {
			maxGap = gap
		}
	}
	meanGap /= float64(len(le))
	t.Logf("ranking-loss gap vs exact (pct points): mean %.3f, max %.3f", meanGap, maxGap)
	if meanGap > 1.0 || maxGap > 3.0 {
		t.Fatalf("sparse ranking loss drifts from exact: mean gap %.3f (limit 1.0), max gap %.3f (limit 3.0)",
			meanGap, maxGap)
	}

	// Incumbent regret: where each arm's posterior-mean resource minimum
	// lands on the held-out history, in true (raw) resource units,
	// normalized by the history's resource range.
	lo, hi := h[0].Res, h[0].Res
	for _, o := range h {
		lo = math.Min(lo, o.Res)
		hi = math.Max(hi, o.Res)
	}
	incumbent := func(b *BaseLearner) float64 {
		bestIdx, bestMu := 0, math.Inf(1)
		for j, o := range h {
			if mu, _ := b.Predict(bo.Res, o.Theta); mu < bestMu {
				bestIdx, bestMu = j, mu
			}
		}
		return h[bestIdx].Res
	}
	var regretGap float64
	for i := range exact {
		gap := math.Abs(incumbent(sparsed[i])-incumbent(exact[i])) / (hi - lo)
		regretGap += gap
	}
	regretGap /= float64(len(exact))
	t.Logf("mean incumbent regret gap: %.4f of resource range", regretGap)
	if regretGap > 0.05 {
		t.Fatalf("sparse incumbent selection drifts from exact: mean gap %.4f of range (limit 0.05)", regretGap)
	}
}
