package baselines

import (
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/lhs"
	"repro/internal/repo"
	"repro/internal/rng"
)

// OtterTuneWCon is the OtterTune-with-constraints baseline: OtterTune's
// workload-mapping strategy (pick the single most similar historical
// workload by internal-metric distance, then pool its observations with the
// target's in one GP) with the acquisition replaced by ResTune's CEI so it
// can honor the SLA (Section 7's "OtterTune-w-Con").
//
// Its two structural weaknesses — which the evaluation section attributes
// its losses to — are faithfully reproduced: the mapping compares absolute
// internal-metric values, which do not transfer across hardware, and it
// pools a single workload's raw observations into the target's GP with no
// mechanism to back off when no history is actually similar (negative
// transfer).
type OtterTuneWCon struct {
	// Seed drives the session's randomness.
	Seed int64
	// Acq configures acquisition optimization.
	Acq bo.OptimizerConfig
	// Tasks is the historical repository (with internal metrics).
	Tasks []repo.TaskRecord
}

// NewOtterTuneWCon returns the baseline with paper settings.
func NewOtterTuneWCon(seed int64, tasks []repo.TaskRecord) *OtterTuneWCon {
	return &OtterTuneWCon{Seed: seed, Acq: bo.DefaultOptimizerConfig(), Tasks: tasks}
}

// Name implements core.Tuner.
func (t *OtterTuneWCon) Name() string { return "OtterTune-w-Con" }

// Run implements core.Tuner.
func (t *OtterTuneWCon) Run(ev core.Evaluator, iters int) (*core.Result, error) {
	s := newSession(ev, t.Name())
	dim := ev.Space().Dim()
	r := rng.Derive(t.Seed, "ottertune")
	design := lhs.Maximin(initIters, dim, 10, rng.Derive(t.Seed, "ottertune-lhs"))

	// Internal metrics of the target's own evaluations, aligned with s.hist.
	var targetInternals [][]float64
	targetInternals = append(targetInternals, s.res.DefaultMeasurement.Internal)

	for iter := 1; iter <= iters; iter++ {
		if iter <= initIters {
			m := s.evaluate(design[iter-1], "lhs", 0, 0)
			targetInternals = append(targetInternals, m.Internal)
			continue
		}

		tModel := time.Now()
		// --- Workload mapping: most similar task by internal-metric
		// distance at matched configurations.
		mapped := t.mapWorkload(s.hist, targetInternals)
		pooled := make(bo.History, 0, len(mapped)+len(s.hist))
		pooled = append(pooled, mapped...)
		pooled = append(pooled, s.hist...) // target data last: wins scale/fit emphasis
		tri := bo.NewTriGP(dim, t.Seed+int64(iter))
		if err := tri.FitWithBudget(pooled, 0); err != nil {
			return nil, err
		}
		modelUpdate := time.Since(tModel)

		tRec := time.Now()
		cons := tri.RawConstraints(s.res.SLA)
		bestVal := math.NaN()
		if best, ok := s.hist.BestFeasible(s.res.SLA); ok {
			bestVal = tri.Standardizer(bo.Res).Apply(best.Res)
		}
		acq := func(x []float64) float64 {
			return bo.CEI(tri, x, bestVal, cons)
		}
		var incumbents [][]float64
		if best, ok := s.hist.BestFeasible(s.res.SLA); ok {
			incumbents = append(incumbents, best.Theta)
		}
		theta := bo.OptimizeAcqBatch(acq, nil, dim, t.Acq, incumbents, r)
		recommend := time.Since(tRec)

		m := s.evaluate(theta, "mapped-cei", modelUpdate, recommend)
		targetInternals = append(targetInternals, m.Internal)
	}
	return s.res, nil
}

// mapWorkload returns the observation history of the most similar task, or
// nil when the repository is empty. Similarity is the average Euclidean
// distance between internal-metric vectors at the task configuration
// closest to each target observation, with metrics standardized by the
// target's own statistics (OtterTune's binning, simplified). Absolute
// metric scales are compared directly — the hardware-sensitivity the paper
// exploits in Section 7.2.1.
func (t *OtterTuneWCon) mapWorkload(target bo.History, targetInternals [][]float64) bo.History {
	if len(t.Tasks) == 0 || len(targetInternals) == 0 || len(targetInternals[0]) == 0 {
		return nil
	}
	nm := len(targetInternals[0])
	mean := make([]float64, nm)
	std := make([]float64, nm)
	for _, v := range targetInternals {
		for i := range mean {
			mean[i] += v[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(len(targetInternals))
	}
	for _, v := range targetInternals {
		for i := range std {
			d := v[i] - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / float64(len(targetInternals)))
		if std[i] < 1e-9 {
			std[i] = 1
		}
	}

	bestTask := -1
	bestScore := math.Inf(1)
	for ti, task := range t.Tasks {
		if len(task.Observations) == 0 || len(task.Observations[0].Internal) != nm {
			continue
		}
		score := 0.0
		count := 0
		for oi, obs := range target {
			if oi >= len(targetInternals) {
				break
			}
			// Closest historical configuration in knob space.
			ci := closestConfig(task, obs.Theta)
			if ci < 0 {
				continue
			}
			score += metricDistance(targetInternals[oi], task.Observations[ci].Internal, mean, std)
			count++
		}
		if count == 0 {
			continue
		}
		score /= float64(count)
		if score < bestScore {
			bestScore, bestTask = score, ti
		}
	}
	if bestTask < 0 {
		return nil
	}
	return t.Tasks[bestTask].History()
}

func closestConfig(task repo.TaskRecord, theta []float64) int {
	best := -1
	bestD := math.Inf(1)
	for i, o := range task.Observations {
		if len(o.Theta) != len(theta) {
			continue
		}
		d := 0.0
		for j := range theta {
			diff := o.Theta[j] - theta[j]
			d += diff * diff
		}
		if d < bestD {
			bestD, best = d, i
		}
	}
	return best
}

func metricDistance(a, b, mean, std []float64) float64 {
	d := 0.0
	for i := range a {
		x := (a[i] - mean[i]) / std[i]
		y := (b[i] - mean[i]) / std[i]
		d += (x - y) * (x - y)
	}
	return math.Sqrt(d)
}
