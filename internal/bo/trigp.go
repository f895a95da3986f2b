package bo

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/gp"
	"repro/internal/mat"
	"repro/internal/obs"
)

// TriGP is the paper's multi-output surrogate for one tuning task: three
// conditionally independent Gaussian processes over resource utilization,
// throughput and latency (Section 5.1), trained on standardized targets and
// predicting in standardized scale. Each metric keeps its own
// marginal-likelihood hyperparameter search (sharing one kernel across
// metrics measurably degrades the meta-learner's rank-based weights), but
// all three GPs observe the same theta track, so whenever two metrics do
// land on equal kernels the batched posterior path detects it and shares
// the cross-covariance block — and, with equal noise, the triangular solve
// and variances — instead of recomputing them.
type TriGP struct {
	gps  [3]*gp.GP
	std  [3]Standardizer
	dim  int
	n    int
	seed int64
	rec  obs.Recorder // telemetry only; nil means Nop
	// obsW holds optional per-observation forgetting weights, applied to
	// all three metric GPs at the next Fit (gp.GP.SetObservationWeights).
	obsW []float64
}

// NewTriGP returns an unfitted surrogate for a dim-dimensional space. The
// seed drives hyperparameter search reproducibly.
func NewTriGP(dim int, seed int64) *TriGP {
	t := &TriGP{dim: dim, seed: seed}
	for i := range t.gps {
		t.gps[i] = gp.New(gp.NewMatern52(1, 0.5), 0.01)
	}
	return t
}

// FitWithBudget conditions the three GPs on the history, standardizing each
// metric separately (scale unification), and refits hyperparameters with
// the given search candidate count (0 selects the default). Because the
// search always keeps the incumbent hyperparameters as a candidate,
// re-fitting the same TriGP across tuning iterations warm-starts from the
// previous solution — a small budget then suffices on most iterations, with
// an occasional full search to escape stale length scales.
func (t *TriGP) FitWithBudget(h History, candidates int) error {
	if len(h) == 0 {
		return fmt.Errorf("bo: empty history")
	}
	rec := obs.OrNop(t.rec)
	if rec.Enabled() {
		sp := rec.Span("bo.trigp.fit",
			obs.Int("n", len(h)), obs.Int("budget", candidates))
		defer sp.End()
	}
	t.n = len(h)
	x := h.Thetas()
	rng := rand.New(rand.NewSource(t.seed + int64(len(h))))
	cfg := gp.DefaultFitConfig()
	cfg.Recorder = rec
	if candidates > 0 {
		cfg.Candidates = candidates
	}
	for i, m := range Metrics {
		raw := h.Values(m)
		t.std[i] = NewStandardizer(raw)
		t.gps[i].SetObservationWeights(t.obsW)
		if err := t.gps[i].Fit(x, t.std[i].ApplyAll(raw)); err != nil {
			return fmt.Errorf("bo: fitting %v surrogate: %w", m, err)
		}
		gp.FitHyperparams(t.gps[i], cfg, rng)
	}
	return nil
}

// SetObservationWeights installs per-observation forgetting weights in
// (0, 1] for subsequent fits: every metric GP conditions on observation i
// with noise inflated by 1/w[i] (gp.GP.SetObservationWeights), so stale
// points fade toward the prior instead of being dropped. The slice is
// retained by reference and must stay parallel to the history handed to
// Fit; nil restores uniform weights. All three metric GPs receive the same
// vector, so the batched posterior path's block/solve sharing is preserved.
func (t *TriGP) SetObservationWeights(w []float64) { t.obsW = w }

// SetSparse configures subset-of-data sparse inference on all three metric
// GPs (gp.GP.SetSparse): once the fitted history exceeds the configured
// threshold, each GP conditions on a farthest-point anchor subset instead
// of the full track. Anchor selection is a pure input-only function of the
// shared theta track, so the three GPs always agree on one anchor set and
// the batched posterior path's block/solve sharing survives sparse mode.
// Call before Fit; the zero config keeps exact inference.
func (t *TriGP) SetSparse(cfg gp.SparseConfig) {
	for i := range t.gps {
		t.gps[i].SetSparse(cfg)
	}
}

// SparseStats reports the sparse-inference state of the last fit. The three
// metric GPs share configuration and theta track, so their states agree;
// the resource GP's is returned.
func (t *TriGP) SparseStats() gp.SparseStats { return t.gps[Res].SparseStats() }

// SetRecorder attaches a telemetry recorder to subsequent fits. The
// recorder never influences fitted models — it only receives spans.
func (t *TriGP) SetRecorder(rec obs.Recorder) { t.rec = rec }

// Predict implements Surrogate in standardized scale.
func (t *TriGP) Predict(m Metric, x []float64) (mu, variance float64) {
	return t.gps[m].Predict(x)
}

// PredictMean returns Predict's mean alone, bit for bit, skipping the
// variance's triangular solve (gp.GP.PredictMean).
func (t *TriGP) PredictMean(m Metric, x []float64) float64 {
	return t.gps[m].PredictMean(x)
}

// triBlockBuf pools the cross-covariance blocks a TriGP.PredictBatch call
// builds (at most one per metric; exactly one when the metric GPs share
// kernels).
type triBlockBuf struct {
	data  [3][]float64
	block [3]mat.Dense
}

var triBlockPool = sync.Pool{New: func() any { return &triBlockBuf{} }}

func (b *triBlockBuf) get(slot, n, m int) *mat.Dense {
	if cap(b.data[slot]) < n*m {
		b.data[slot] = make([]float64, n*m)
	}
	b.block[slot].Reset(n, m, b.data[slot][:n*m])
	return &b.block[slot]
}

// PredictBatch implements BatchSurrogate in standardized scale. The three
// metric GPs are trained on the same theta track, so sharing is
// opportunistic: whenever two metrics hold equal kernels the
// cross-covariance block over the candidate batch is built once, and with
// equal noise the (bit-identical) Cholesky solve and variances are reused
// too, leaving only the target-dependent means per metric. Metrics with
// diverged hyperparameters — the common case after per-metric search —
// still get the batched path: per-row hoisted kernel evaluation and the
// blocked triangular solve, just with their own block. Results match three
// independent Predict calls bit for bit.
func (t *TriGP) PredictBatch(X [][]float64, post *BatchPosterior) {
	t.predictBatch(X, post, false)
}

// PredictMeanBatch fills post.Mu exactly as PredictBatch does and leaves
// post.Var unspecified: each block feeds gp.GP.MeanBatchCov alone, so no
// triangular solve runs.
func (t *TriGP) PredictMeanBatch(X [][]float64, post *BatchPosterior) {
	t.predictBatch(X, post, true)
}

// predictBatch is the block-sharing loop behind PredictBatch and, with
// meanOnly, PredictMeanBatch.
func (t *TriGP) predictBatch(X [][]float64, post *BatchPosterior, meanOnly bool) {
	post.Resize(len(X))
	if len(X) == 0 {
		return
	}
	bb := triBlockPool.Get().(*triBlockBuf)
	var done [3]bool
	for i := range t.gps {
		if done[i] {
			continue
		}
		gi := t.gps[i]
		if gi.N() == 0 {
			gi.PredictBatch(X, post.Mu[i], post.Var[i])
			done[i] = true
			continue
		}
		kstar := bb.get(i, gi.TrainN(), len(X))
		gi.CrossCovTo(kstar, X)
		if meanOnly {
			gi.MeanBatchCov(kstar, post.Mu[i])
		} else {
			gi.PredictBatchCov(kstar, X, post.Mu[i], post.Var[i])
		}
		done[i] = true
		for j := i + 1; j < len(t.gps); j++ {
			if done[j] || !gi.SharesCrossCov(t.gps[j]) {
				continue
			}
			switch {
			case meanOnly:
				t.gps[j].MeanBatchCov(kstar, post.Mu[j])
			case gi.SharesSolve(t.gps[j]):
				// Same factor, noise and block: the variance half is
				// bit-identical, so only the mean is recomputed.
				t.gps[j].MeanBatchCov(kstar, post.Mu[j])
				copy(post.Var[j], post.Var[i])
			default:
				t.gps[j].PredictBatchCov(kstar, X, post.Mu[j], post.Var[j])
			}
			done[j] = true
		}
	}
	triBlockPool.Put(bb)
}

// PredictRaw returns the posterior in the metric's raw units.
func (t *TriGP) PredictRaw(m Metric, x []float64) (mu, variance float64) {
	zmu, zv := t.gps[m].Predict(x)
	s := t.std[m]
	return s.Invert(zmu), zv * s.Std * s.Std
}

// Standardizer returns the per-metric scale-unification transform.
func (t *TriGP) Standardizer(m Metric) Standardizer { return t.std[m] }

// GP exposes the underlying per-metric GP (used by the meta-learner for
// leave-one-out evaluation of the target base-learner).
func (t *TriGP) GP(m Metric) *gp.GP { return t.gps[m] }

// N returns the number of fitted observations.
func (t *TriGP) N() int { return t.n }

// Dim returns the input dimensionality.
func (t *TriGP) Dim() int { return t.dim }

// RawConstraints converts raw SLA thresholds into the surrogate's
// standardized output scale.
func (t *TriGP) RawConstraints(sla SLA) Constraints {
	return Constraints{
		LambdaTps: t.std[Tps].Apply(sla.LambdaTps),
		LambdaLat: t.std[Lat].Apply(sla.LambdaLat),
	}
}
