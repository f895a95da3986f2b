package experiments

import (
	"repro/internal/baselines"
	"repro/internal/core"
)

func init() {
	register("ablation-acquisition",
		"Ablation: CEI (paper) vs penalty-method constrained BO vs unconstrained EI", runAblationAcq)
	register("ablation-weights",
		"Ablation: adaptive weight schema (paper) vs static-only, dynamic-only and dilution-guarded", runAblationWeights)
	register("ablation-variance",
		"Ablation: target-only ensemble variance (paper Eq. 7) vs weighted-average variance", runAblationVariance)
}

// ablationRows runs one row per tuner on the Twitter case-study task, keyed
// by its label, and reports each trajectory.
func ablationRows(r *Report, p Params, labels []string, tuners ...core.Tuner) error {
	out, err := runRows(caseStudyRows(p, labels, tuners))
	if err != nil {
		return err
	}
	for _, o := range out {
		r.AddSeries(o.key, o.series)
		def, best := o.series[0], o.series[len(o.series)-1]
		feasCount := 0
		for _, it := range o.last.Iterations[1:] {
			if it.Feasible {
				feasCount++
			}
		}
		r.Addf("%-28s %12.1f %14.1f %12.1f %14d", o.key, def, best, (def-best)/def*100, feasCount)
	}
	return nil
}

// runAblationAcq compares the paper's CEI against the penalty method its
// related-work section calls "the simplest way", and against plain EI
// (iTuned), on the Twitter case-study task.
func runAblationAcq(p Params) (*Report, error) {
	r := newReport("ablation-acquisition", Title("ablation-acquisition"))
	r.Addf("%-28s %12s %14s %12s %14s", "Acquisition", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")
	cfg := p.config(p.Seed, "", nil, nil)
	if err := ablationRows(r, p, []string{"CEI (ResTune-w/o-ML)", "Penalty-BO", "EI unconstrained (iTuned)"},
		core.New(p.config(p.Seed, "ResTune-w/o-ML", nil, nil)), baselines.NewPenaltyBO(cfg), baselines.NewITuned(cfg)); err != nil {
		return nil, err
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
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}
	build := func(schema core.WeightSchema, guard bool, name string) core.Tuner {
		cfg := cs.config(p, p.Seed, name)
		cfg.Schema, cfg.DilutionGuard = schema, guard
		return core.New(cfg)
	}
	r.Addf("%-28s %12s %14s %12s %14s", "Schema", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")
	if err := ablationRows(r, p, []string{"adaptive (paper)", "static-only", "dynamic-only", "adaptive+dilution-guard"},
		build(core.AdaptiveSchema, false, "adaptive"),
		build(core.StaticOnlySchema, false, "static-only"),
		build(core.DynamicOnlySchema, false, "dynamic-only"),
		build(core.AdaptiveSchema, true, "guarded")); err != nil {
		return nil, err
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
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}
	build := func(weighted bool, name string) core.Tuner {
		cfg := cs.config(p, p.Seed, name)
		cfg.WeightedVariance = weighted
		return core.New(cfg)
	}
	r.Addf("%-28s %12s %14s %12s %14s", "Variance", "DefaultCPU%", "BestFeasCPU%", "Improve%", "FeasibleProbes")
	if err := ablationRows(r, p, []string{"target-only (paper Eq.7)", "weighted-average"},
		build(false, "target-variance"), build(true, "weighted-variance")); err != nil {
		return nil, err
	}
	r.Addf("")
	r.Addf("Expected shape: target-only variance keeps exploration honest where the")
	r.Addf("target has no data; confident-but-wrong historical learners shrink the")
	r.Addf("weighted variance and can trap the weighted-average variant early.")
	return r, nil
}
