// Package meta implements the paper's meta-learning pipeline (Section 6):
// per-task base-learners over scale-unified observations, static weights
// from workload meta-features (Eq. 8), dynamic weights from posterior-
// sampled ranking losses (Eq. 9, RGPE-style), the adaptive weight schema
// (Section 6.4.3), and the ensemble meta-learner whose mean is the weighted
// combination of base-learner predictions and whose variance comes from the
// target base-learner alone (Eqs. 6-7).
package meta

import (
	"fmt"

	"repro/internal/bo"
	"repro/internal/gp"
)

// BaseLearner memorizes one tuning task's observation history as a
// multi-output GP over standardized metrics, together with the task's
// workload meta-feature. Base-learners for historical tasks live in the
// data repository; one more is fit for the target task as it accumulates
// observations.
type BaseLearner struct {
	// TaskID identifies the tuning task.
	TaskID string
	// WorkloadName and HardwareName describe where the history came from.
	WorkloadName string
	HardwareName string
	// MetaFeature is the workload-characterization embedding.
	MetaFeature []float64
	// Surrogate is the fitted three-output GP over standardized metrics.
	Surrogate *bo.TriGP
	// History is the raw observation track.
	History bo.History
}

// NewBaseLearnerSparse fits a base-learner on a task history. dim is the
// configuration-space dimensionality; seed drives GP hyperparameter search.
// sparse is the surrogate's sparse-inference configuration
// (bo.TriGP.SetSparse): historical tasks with long observation tracks fit
// on an anchor subset instead of paying the full cubic factorization per
// hyperparameter candidate. The zero config keeps exact inference;
// histories at or below the threshold are bit-identical either way.
func NewBaseLearnerSparse(taskID, workloadName, hardwareName string, metaFeature []float64, h bo.History, dim int, seed int64, sparse gp.SparseConfig) (*BaseLearner, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("meta: base-learner %s has no observations", taskID)
	}
	for _, o := range h {
		if len(o.Theta) != dim {
			return nil, fmt.Errorf("meta: base-learner %s observation dim %d != %d", taskID, len(o.Theta), dim)
		}
	}
	s := bo.NewTriGP(dim, seed)
	s.SetSparse(sparse)
	if err := s.FitWithBudget(h, 0); err != nil {
		return nil, fmt.Errorf("meta: fitting base-learner %s: %w", taskID, err)
	}
	return &BaseLearner{
		TaskID:       taskID,
		WorkloadName: workloadName,
		HardwareName: hardwareName,
		MetaFeature:  append([]float64(nil), metaFeature...),
		Surrogate:    s,
		History:      h,
	}, nil
}

// NewBaseLearnerFromSurrogate wraps an already-fitted surrogate as a
// base-learner. The caller guarantees s was fitted on h; the core tuning
// loop uses this to keep one persistent target surrogate across iterations
// (warm-started hyperparameter search).
func NewBaseLearnerFromSurrogate(taskID, workloadName, hardwareName string, metaFeature []float64, h bo.History, s *bo.TriGP) *BaseLearner {
	return &BaseLearner{
		TaskID:       taskID,
		WorkloadName: workloadName,
		HardwareName: hardwareName,
		MetaFeature:  append([]float64(nil), metaFeature...),
		Surrogate:    s,
		History:      h,
	}
}

// Predict returns the standardized posterior for one metric.
func (b *BaseLearner) Predict(m bo.Metric, x []float64) (mu, variance float64) {
	return b.Surrogate.Predict(m, x)
}

// PredictBatch fills post with the standardized posterior of all three
// metrics at every candidate: each metric GP builds one cross-covariance
// block for the whole candidate batch (see bo.TriGP.PredictBatch) instead of
// a kernel row per candidate. Bit-identical to per-point Predict.
func (b *BaseLearner) PredictBatch(X [][]float64, post *bo.BatchPosterior) {
	b.Surrogate.PredictBatch(X, post)
}
