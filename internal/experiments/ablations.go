package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/meta"
	"repro/internal/workload"
)

func init() {
	register("ablation-acquisition",
		"Ablation: CEI (paper) vs penalty-method constrained BO vs unconstrained EI", runAblationAcq)
	register("ablation-weights",
		"Ablation: adaptive weight schema (paper) vs static-only, dynamic-only and dilution-guarded", runAblationWeights)
	register("ablation-variance",
		"Ablation: target-only ensemble variance (paper Eq. 7) vs weighted-average variance", runAblationVariance)
}

// ablationRow runs one tuner on the Twitter case-study task and reports its
// trajectory.
func ablationRow(r *Report, p Params, label string, tuner core.Tuner, seed int64) error {
	series, res, err := comparisonRun(p, func(run int) (core.Tuner, core.Evaluator, error) {
		return tuner, caseStudyEvaluator(seed + int64(run)), nil
	})
	if err != nil {
		return err
	}
	r.AddSeries(label, series)
	def, best := series[0], series[len(series)-1]
	feasCount := 0
	for _, it := range res.Iterations[1:] {
		if it.Feasible {
			feasCount++
		}
	}
	r.Addf("%-28s %12.1f %14.1f %12.1f %14d", label, def, best, (def-best)/def*100, feasCount)
	return nil
}

// runAblationAcq compares the paper's CEI against the penalty method its
// related-work section calls "the simplest way", and against plain EI
// (iTuned), on the Twitter case-study task.
func runAblationAcq(p Params) (*Report, error) {
	r := newReport("ablation-acquisition", Title("ablation-acquisition"))
	r.Addf("%-28s %12s %14s %12s %14s", "Acquisition", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")

	cfg := sessionConfig(p, p.Seed)
	rows := []struct {
		label string
		tuner core.Tuner
	}{
		{"CEI (ResTune-w/o-ML)", scratchTuner(p, p.Seed)},
		{"Penalty-BO", baselines.NewPenaltyBO(cfg)},
		{"EI unconstrained (iTuned)", baselines.NewITuned(cfg)},
	}
	for i, row := range rows {
		if err := ablationRow(r, p, row.label, row.tuner, p.Seed+int64(10*i)); err != nil {
			return nil, err
		}
	}
	r.Addf("")
	r.Addf("Expected shape: CEI finds the lowest feasible CPU and spends the most")
	r.Addf("probes inside the feasible region; the penalty discontinuity misleads the")
	r.Addf("single-GP model; unconstrained EI wastes probes on infeasible configs.")
	return r, nil
}

// runAblationWeights compares the paper's adaptive weight schema against
// static-only, dynamic-only and the dilution-guarded dynamic variant.
func runAblationWeights(p Params) (*Report, error) {
	r := newReport("ablation-weights", Title("ablation-weights"))
	_, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	mf, err := metaFeatureOf(workload.Twitter(), p.Seed)
	if err != nil {
		return nil, err
	}

	build := func(schema core.WeightSchema, guard bool, name string) core.Tuner {
		cfg := core.DefaultConfig(p.Seed)
		cfg.Acq = p.Acq
		cfg.Corpus = meta.NewCorpus(meta.TasksOf(learners...), meta.CorpusOptions{})
		cfg.TargetMetaFeature = mf
		cfg.Schema = schema
		cfg.DilutionGuard = guard
		cfg.Name = name
		return core.New(cfg)
	}

	r.Addf("%-28s %12s %14s %12s %14s", "Schema", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")
	rows := []struct {
		label string
		tuner core.Tuner
	}{
		{"adaptive (paper)", build(core.AdaptiveSchema, false, "adaptive")},
		{"static-only", build(core.StaticOnlySchema, false, "static-only")},
		{"dynamic-only", build(core.DynamicOnlySchema, false, "dynamic-only")},
		{"adaptive+dilution-guard", build(core.AdaptiveSchema, true, "guarded")},
	}
	for i, row := range rows {
		if err := ablationRow(r, p, row.label, row.tuner, p.Seed+int64(10*i)); err != nil {
			return nil, err
		}
	}
	r.Addf("")
	r.Addf("Expected shape: the adaptive schema matches or beats both single-schema")
	r.Addf("variants — static-only cannot exploit accumulating target observations,")
	r.Addf("dynamic-only wastes the workload characterization's head start.")
	return r, nil
}

// runAblationVariance compares Eq. 7's target-only ensemble variance with a
// weighted-average variance.
func runAblationVariance(p Params) (*Report, error) {
	r := newReport("ablation-variance", Title("ablation-variance"))
	_, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	mf, err := metaFeatureOf(workload.Twitter(), p.Seed)
	if err != nil {
		return nil, err
	}
	build := func(weighted bool, name string) core.Tuner {
		cfg := core.DefaultConfig(p.Seed)
		cfg.Acq = p.Acq
		cfg.Corpus = meta.NewCorpus(meta.TasksOf(learners...), meta.CorpusOptions{})
		cfg.TargetMetaFeature = mf
		cfg.WeightedVariance = weighted
		cfg.Name = name
		return core.New(cfg)
	}
	r.Addf("%-28s %12s %14s %12s %14s", "Variance", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")
	rows := []struct {
		label string
		tuner core.Tuner
	}{
		{"target-only (paper Eq.7)", build(false, "target-variance")},
		{"weighted-average", build(true, "weighted-variance")},
	}
	for i, row := range rows {
		if err := ablationRow(r, p, row.label, row.tuner, p.Seed+int64(10*i)); err != nil {
			return nil, err
		}
	}
	r.Addf("")
	r.Addf("Expected shape: target-only variance keeps exploration honest where the")
	r.Addf("target has no data; confident-but-wrong historical learners shrink the")
	r.Addf("weighted variance and can trap the weighted-average variant early.")
	return r, nil
}
