package bo

import (
	"math"
	"sync"
)

// BatchPosterior holds the three metrics' posterior over one candidate block:
// Mu[m][j] and Var[m][j] are the mean and variance of metric m at candidate j.
type BatchPosterior struct {
	Mu  [3][]float64
	Var [3][]float64
}

// Resize readies the posterior for n candidates, reusing capacity.
func (p *BatchPosterior) Resize(n int) {
	for m := range p.Mu {
		p.Mu[m] = growFloats(p.Mu[m], n)
		p.Var[m] = growFloats(p.Var[m], n)
	}
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// BatchSurrogate scores whole candidate blocks in one pass. PredictBatch
// fills post with the posterior of all three metrics at every candidate;
// handing the surrogate the full block (instead of one point and one metric
// at a time) lets it build a cross-covariance block once per metric GP for
// all candidates. Implementations must be bit-identical to the point-wise
// Predict — TriGP and the meta-learner ensemble both are — and safe for
// concurrent calls.
type BatchSurrogate interface {
	Surrogate
	PredictBatch(X [][]float64, post *BatchPosterior)
}

// posteriorPool recycles BatchPosterior scratch across CEIBatch calls so the
// batched acquisition path allocates nothing in steady state.
var posteriorPool = sync.Pool{New: func() any { return &BatchPosterior{} }}

// CEIBatch evaluates the Constrained Expected Improvement (Eq. 5) at every
// candidate in X, writing out[j] = CEI(s, X[j], bestFeasibleRes, c). The
// per-candidate arithmetic is exactly CEI's — same feasibility-probability
// and EI expressions in the same order — applied to batch-computed
// posteriors, so out is bit-identical to point-wise evaluation.
func CEIBatch(s BatchSurrogate, X [][]float64, bestFeasibleRes float64, c Constraints, out []float64) {
	if len(out) != len(X) {
		panic("bo: batch output length mismatch")
	}
	if len(X) == 0 {
		return
	}
	p := posteriorPool.Get().(*BatchPosterior)
	p.Resize(len(X))
	s.PredictBatch(X, p)
	noBest := math.IsNaN(bestFeasibleRes)
	for j := range X {
		pT := normCDF((p.Mu[Tps][j] - c.LambdaTps) / math.Sqrt(p.Var[Tps][j]))
		pL := normCDF((c.LambdaLat - p.Mu[Lat][j]) / math.Sqrt(p.Var[Lat][j]))
		pf := pT * pL
		if noBest {
			out[j] = pf
			continue
		}
		out[j] = pf * EI(p.Mu[Res][j], math.Sqrt(p.Var[Res][j]), bestFeasibleRes)
	}
	posteriorPool.Put(p)
}
