package meta

import (
	"sync"

	"repro/internal/bo"
)

// Ensemble is the meta-learner L_M (Section 6.3): a weighted combination of
// base-learners whose mean prediction is
//
//	μ_M(θ) = Σ g_i μ_i(θ) / Σ g_i                       (Eq. 6)
//
// and whose variance trusts the target base-learner only:
//
//	σ²_M(θ) = σ²_{T+1}(θ)                               (Eq. 7)
//
// so that combining meta-data does not add the O(t³n³) cost of pooling all
// histories in one GP — complexity stays O(n³) in the target history.
//
// Ensemble implements bo.Surrogate, so the CEI acquisition of Section 5
// drives it unchanged.
type Ensemble struct {
	base    []*BaseLearner
	target  *BaseLearner // nil before any target observations
	weights []float64    // len(base)+1, target last
	// weightedVariance replaces Eq. 7's target-only variance with the
	// weighted average of all learners' variances — an ablation of the
	// paper's design choice (see experiments "ablation-variance").
	weightedVariance bool
}

// WithWeightedVariance returns a copy of e using weighted-average variance
// instead of the paper's target-only variance (Eq. 7).
func (e *Ensemble) WithWeightedVariance() *Ensemble {
	c := *e
	c.weightedVariance = true
	return &c
}

// NewEnsemble builds a meta-learner from historical base-learners, the
// (possibly nil) target base-learner, and weights (len(base)+1, target
// last). Zero total weight falls back to trusting the target, or a uniform
// combination when no target model exists yet.
func NewEnsemble(base []*BaseLearner, target *BaseLearner, weights []float64) *Ensemble {
	if len(weights) != len(base)+1 {
		panic("meta: weights length must be len(base)+1")
	}
	w := append([]float64(nil), weights...)
	if target == nil {
		w[len(base)] = 0
	}
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	if total == 0 {
		if target != nil {
			w[len(base)] = 1
		} else {
			for i := range base {
				w[i] = 1
			}
		}
	}
	return &Ensemble{base: base, target: target, weights: w}
}

// Weights returns the normalized weights (summing to 1), target last.
func (e *Ensemble) Weights() []float64 {
	out := append([]float64(nil), e.weights...)
	total := 0.0
	for _, w := range out {
		total += w
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// meanOnly reports whether the base learners contribute their means alone:
// Eq. 7 takes the variance from the target, so whenever a target exists and
// the weighted-variance ablation is off, no base-learner variance is read.
func (e *Ensemble) meanOnly() bool {
	return e.target != nil && !e.weightedVariance
}

// Predict implements bo.Surrogate in the unified (standardized) scale.
func (e *Ensemble) Predict(m bo.Metric, x []float64) (mu, variance float64) {
	meanOnly := e.meanOnly()
	var sumW, sumWMu, sumWVar float64
	for i, b := range e.base {
		if e.weights[i] == 0 {
			continue
		}
		sumW += e.weights[i]
		if meanOnly {
			sumWMu += e.weights[i] * b.Surrogate.PredictMean(m, x)
			continue
		}
		bm, bv := b.Predict(m, x)
		sumWMu += e.weights[i] * bm
		sumWVar += e.weights[i] * bv
	}
	var targetVar float64
	if e.target != nil {
		tm, tv := e.target.Predict(m, x)
		if w := e.weights[len(e.base)]; w > 0 {
			sumW += w
			sumWMu += w * tm
			sumWVar += w * tv
		}
		targetVar = tv
	}
	if sumW == 0 {
		return 0, 1
	}
	mu = sumWMu / sumW
	if meanOnly {
		return mu, targetVar
	}
	// Weighted variance: either the explicit ablation mode, or the static
	// phase before any target model exists (so the acquisition still
	// explores).
	return mu, sumWVar / sumW
}

// ensembleBuf pools the per-call scratch of Ensemble.PredictBatch: one
// learner posterior reused across base learners, the target's posterior, and
// the weighted accumulators.
type ensembleBuf struct {
	learner, target bo.BatchPosterior
	sumWMu, sumWVar [3][]float64
}

var ensemblePool = sync.Pool{New: func() any { return &ensembleBuf{} }}

func (b *ensembleBuf) resize(n int) {
	for m := range b.sumWMu {
		b.sumWMu[m] = growZero(b.sumWMu[m], n)
		b.sumWVar[m] = growZero(b.sumWVar[m], n)
	}
}

func growZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// PredictBatch implements bo.BatchSurrogate: the Eq. 6/7 combination at every
// candidate of a block, bit-identical to per-point Predict. Zero-weight base
// learners are skipped entirely — their surrogates never build a block — and
// each contributing learner's metric GPs each build one cross-covariance
// block for the whole candidate block via its own PredictBatch, or
// PredictMeanBatch when its variance is not read (meanOnly).
func (e *Ensemble) PredictBatch(X [][]float64, post *bo.BatchPosterior) {
	post.Resize(len(X))
	n := len(X)
	if n == 0 {
		return
	}
	buf := ensemblePool.Get().(*ensembleBuf)
	buf.resize(n)
	meanOnly := e.meanOnly()
	// Accumulate base learners in index order — the same order, and thus the
	// same floating-point sums, as the point-wise loop.
	sumW := 0.0
	for i, b := range e.base {
		if e.weights[i] == 0 {
			continue
		}
		w := e.weights[i]
		sumW += w
		if meanOnly {
			b.Surrogate.PredictMeanBatch(X, &buf.learner)
		} else {
			b.PredictBatch(X, &buf.learner)
		}
		for m := range buf.sumWMu {
			lmu, smu := buf.learner.Mu[m], buf.sumWMu[m]
			for j := 0; j < n; j++ {
				smu[j] += w * lmu[j]
			}
			if meanOnly {
				continue
			}
			lv, sv := buf.learner.Var[m], buf.sumWVar[m]
			for j := 0; j < n; j++ {
				sv[j] += w * lv[j]
			}
		}
	}
	hasTarget := e.target != nil
	if hasTarget {
		e.target.PredictBatch(X, &buf.target)
		if w := e.weights[len(e.base)]; w > 0 {
			sumW += w
			for m := range buf.sumWMu {
				tmu, tv := buf.target.Mu[m], buf.target.Var[m]
				smu, sv := buf.sumWMu[m], buf.sumWVar[m]
				for j := 0; j < n; j++ {
					smu[j] += w * tmu[j]
					sv[j] += w * tv[j]
				}
			}
		}
	}
	for m := range buf.sumWMu {
		mu, va := post.Mu[m], post.Var[m]
		if sumW == 0 {
			for j := 0; j < n; j++ {
				mu[j], va[j] = 0, 1
			}
			continue
		}
		for j := 0; j < n; j++ {
			mu[j] = buf.sumWMu[m][j] / sumW
		}
		if meanOnly {
			copy(va, buf.target.Var[m])
			continue
		}
		for j := 0; j < n; j++ {
			va[j] = buf.sumWVar[m][j] / sumW
		}
	}
	ensemblePool.Put(buf)
}

// RescaledConstraints computes the re-scaled SLA thresholds of Section 6.1:
// λ'_u = L^u_M(θ_d), the meta-learner's own prediction at the default
// configuration. A candidate predicted better than the default on the
// unified scale is predicted feasible in raw scale.
func (e *Ensemble) RescaledConstraints(defaultTheta []float64) bo.Constraints {
	muT, _ := e.Predict(bo.Tps, defaultTheta)
	muL, _ := e.Predict(bo.Lat, defaultTheta)
	return bo.Constraints{LambdaTps: muT, LambdaLat: muL}
}
