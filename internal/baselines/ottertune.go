package baselines

import (
	"math"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/repo"
)

// NewOtterTuneWCon returns the OtterTune-with-constraints baseline over a
// historical task set: OtterTune's workload-mapping strategy (pick the
// single most similar historical workload by internal-metric distance,
// then pool its observations with the target's in one GP) with the
// acquisition replaced by ResTune's CEI so it can honor the SLA (Section
// 7's "OtterTune-w-Con").
//
// Its two structural weaknesses — which the evaluation section attributes
// its losses to — are faithfully reproduced: the mapping compares absolute
// internal-metric values, which do not transfer across hardware, and it
// pools a single workload's raw observations into the target's GP with no
// mechanism to back off when no history is actually similar (negative
// transfer).
func NewOtterTuneWCon(cfg core.Config, tasks []repo.TaskRecord) core.Tuner {
	return withPolicy(cfg, "OtterTune-w-Con", &otterTune{lhsStart: lhsStart{stream: "ottertune"}, tasks: tasks})
}

type otterTune struct {
	lhsStart
	// tasks is the historical repository (with internal metrics).
	tasks []repo.TaskRecord
	tri   *bo.TriGP
}

// Update implements core.Policy: map the target onto its most similar
// task and fit one surrogate to the pooled observations.
func (p *otterTune) Update(v *core.View) error {
	if v.Iter <= v.InitIters {
		return nil
	}
	mapped := p.mapWorkload(v.Iterations)
	pooled := make(bo.History, 0, len(mapped)+len(v.History))
	pooled = append(pooled, mapped...)
	pooled = append(pooled, v.History...) // target data last: wins scale/fit emphasis
	p.tri = bo.NewTriGP(v.Dim, v.Seed+int64(v.Iter))
	return p.tri.FitWithBudget(pooled, 0)
}

// Propose implements core.Policy: CEI over the pooled surrogate, started
// from the incumbent.
func (p *otterTune) Propose(v *core.View) ([]float64, string) {
	if v.Iter <= v.InitIters {
		return p.design[v.Iter-1], "lhs"
	}
	cons := p.tri.RawConstraints(v.SLA)
	bestVal := math.NaN()
	var incumbents [][]float64
	if v.HasBest {
		bestVal = p.tri.Standardizer(bo.Res).Apply(v.Best.Res)
		incumbents = [][]float64{v.Best.Theta}
	}
	acq := func(x []float64) float64 {
		return bo.CEI(p.tri, x, bestVal, cons)
	}
	return bo.OptimizeAcqBatch(acq, nil, v.Dim, v.Acq, incumbents, p.r), "mapped-cei"
}

// mapWorkload returns the observation history of the most similar task, or
// nil when the repository is empty. Similarity is the average Euclidean
// distance between internal-metric vectors at the task configuration
// closest to each target observation, with metrics standardized by the
// target's own statistics (OtterTune's binning, simplified). Absolute
// metric scales are compared directly — the hardware-sensitivity the paper
// exploits in Section 7.2.1.
func (p *otterTune) mapWorkload(target []core.Iteration) bo.History {
	if len(p.tasks) == 0 || len(target) == 0 || len(target[0].Measurement.Internal) == 0 {
		return nil
	}
	nm, n := len(target[0].Measurement.Internal), float64(len(target))
	mean, std := make([]float64, nm), make([]float64, nm)
	for _, it := range target {
		for i := range mean {
			mean[i] += it.Measurement.Internal[i]
		}
	}
	for i := range mean {
		mean[i] /= n
	}
	for _, it := range target {
		for i := range std {
			d := it.Measurement.Internal[i] - mean[i]
			std[i] += d * d
		}
	}
	for i := range std {
		std[i] = math.Sqrt(std[i] / n)
		if std[i] < 1e-9 {
			std[i] = 1
		}
	}

	bestTask, bestScore := -1, math.Inf(1)
	for ti, task := range p.tasks {
		if len(task.Observations) == 0 || len(task.Observations[0].Internal) != nm {
			continue
		}
		score, count := 0.0, 0
		for _, it := range target {
			// Closest historical configuration in knob space.
			ci := closestConfig(task, it.Observation.Theta)
			if ci < 0 {
				continue
			}
			score += metricDistance(it.Measurement.Internal, task.Observations[ci].Internal, mean, std)
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
	return p.tasks[bestTask].History()
}

func closestConfig(task repo.TaskRecord, theta []float64) int {
	best, bestD := -1, math.Inf(1)
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
