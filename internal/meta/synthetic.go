package meta

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/rng"
)

// SyntheticCorpus generates n deterministic synthetic base tasks for
// corpus-scale benchmarks and CLI experiments. Each task carries a
// metaDim-dimensional L2-normalized meta-feature (the shape TF-IDF workload
// characterizations have) and a histLen-observation history over a
// dim-dimensional quadratic response surface with a per-task optimum; the
// TriGP fit is deferred to the task's Fit closure, so generating a
// 4000-task corpus is cheap and only shortlisted tasks pay their fit.
// The same (n, metaDim, dim, histLen, seed) always yields the same corpus,
// independent of GOMAXPROCS or call order.
func SyntheticCorpus(n, metaDim, dim, histLen int, seed int64) []CorpusTask {
	tasks := make([]CorpusTask, n)
	for i := 0; i < n; i++ {
		mf, opt, scale, off, hseed := syntheticTaskParams(i, metaDim, dim, seed)
		id := fmt.Sprintf("synth-%04d", i)
		tasks[i] = CorpusTask{
			ID:          id,
			MetaFeature: mf,
			Fit: func() (*BaseLearner, error) {
				h := syntheticQuadHistory(histLen, dim, opt, scale, off, hseed)
				return NewBaseLearnerSparse(id, id, "synth", mf, h, dim, hseed, gp.SparseConfig{})
			},
		}
	}
	return tasks
}

// syntheticTaskParams draws synthetic task i's L2-normalized meta-feature
// and the parameters of its response surface (optimum, curvature, offset)
// from the task's own derived stream; hseed seeds both its history and its
// surrogate's hyperparameter search.
func syntheticTaskParams(i, metaDim, dim int, seed int64) (mf, opt []float64, scale, off float64, hseed int64) {
	r := rng.Derive(seed, fmt.Sprintf("synth-task:%d", i))
	mf = make([]float64, metaDim)
	norm := 0.0
	for d := range mf {
		mf[d] = r.Float64()
		norm += mf[d] * mf[d]
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for d := range mf {
			mf[d] /= norm
		}
	}
	opt = make([]float64, dim)
	for d := range opt {
		opt[d] = r.Float64()
	}
	scale = 5 + 10*r.Float64()
	off = 20 * r.Float64()
	return mf, opt, scale, off, r.Int63()
}

// syntheticQuadHistory samples histLen observations of a noisy quadratic
// bowl centered at opt.
func syntheticQuadHistory(histLen, dim int, opt []float64, scale, off float64, seed int64) bo.History {
	r := rand.New(rand.NewSource(seed))
	h := make(bo.History, 0, histLen)
	for i := 0; i < histLen; i++ {
		x := make([]float64, dim)
		s := 0.0
		for d := range x {
			x[d] = r.Float64()
			dx := x[d] - opt[d]
			s += dx * dx
		}
		res := scale*s + off + 0.05*r.NormFloat64()
		h = append(h, bo.Observation{
			Theta: x,
			Res:   res,
			Tps:   1000 - 2*res,
			Lat:   10 + 0.1*res,
		})
	}
	return h
}
