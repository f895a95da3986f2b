package bo

import (
	"fmt"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/obs"
)

// TriGP is the paper's multi-output surrogate for one tuning task: three
// conditionally independent Gaussian processes over resource utilization,
// throughput and latency (Section 5.1), trained on standardized targets and
// predicting in standardized scale. All three GPs observe the same theta
// track, but each metric keeps its own marginal-likelihood hyperparameter
// search (sharing one kernel across metrics measurably degrades the
// meta-learner's rank-based weights), and so its own factor and its own
// batched posterior.
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
// vector.
func (t *TriGP) SetObservationWeights(w []float64) { t.obsW = w }

// SetSparse configures subset-of-data sparse inference on all three metric
// GPs (gp.GP.SetSparse): once the fitted history exceeds the configured
// threshold, each GP conditions on a farthest-point anchor subset instead
// of the full track. Anchor selection is a pure input-only function of the
// shared theta track, so the three GPs always agree on one anchor set (which
// SparseStats relies on). Call before Fit; the zero config keeps exact
// inference.
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

// PredictBatch implements BatchSurrogate in standardized scale: each metric
// GP computes its own batched posterior (gp.GP.PredictBatch), bit-identical
// to three independent Predict calls.
func (t *TriGP) PredictBatch(X [][]float64, post *BatchPosterior) {
	post.Resize(len(X))
	for i, g := range t.gps {
		g.PredictBatch(X, post.Mu[i], post.Var[i])
	}
}

// PredictMeanBatch fills post.Mu exactly as PredictBatch does and leaves
// post.Var unspecified: no triangular solve runs
// (gp.GP.PredictMeanBatch).
func (t *TriGP) PredictMeanBatch(X [][]float64, post *BatchPosterior) {
	post.Resize(len(X))
	for i, g := range t.gps {
		g.PredictMeanBatch(X, post.Mu[i])
	}
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
