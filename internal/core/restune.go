package core

import (
	"math"

	"repro/internal/bo"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/lhs"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Config parameterizes a ResTune session. Start from DefaultConfig: New
// takes the fields as given and fills in nothing.
type Config struct {
	// Name overrides the method's display name (e.g. "ResTune-w/o-ML").
	Name string
	// Seed drives every stochastic component of the session.
	Seed int64
	// InitIters is the initialization budget: the static-weight phase when
	// meta-learning is active, or the LHS design otherwise (10 in the
	// paper).
	InitIters int
	// Corpus supplies the historical base-learners from the data repository;
	// nil disables meta-learning (the ResTune-w/o-ML ablation). Learners are
	// fitted lazily: on a small corpus (at or below the corpus's exact
	// threshold) every task is fitted and weighted each iteration, above it
	// only the nearest-neighbor shortlist is. A Corpus is single-session
	// state — sessions sharing fitted learners each take their own
	// (meta.TasksOf, meta.SharedCorpus.NewSession).
	Corpus *meta.Corpus
	// TargetMetaFeature is the target workload's characterization embedding
	// (required for static weights when Corpus is set).
	TargetMetaFeature []float64
	// UseWorkloadChar enables the meta-feature-driven static phase. When
	// false with meta-learning active, initialization falls back to LHS —
	// the ResTune-w/o-Workload ablation of Figure 6(b).
	UseWorkloadChar bool
	// DynamicSamples is the posterior sample count for ranking-loss weights.
	DynamicSamples int
	// SLATolerance is the accepted relative measurement deviation when
	// judging feasibility (5% in the paper).
	SLATolerance float64
	// Schema selects the weight-assignment schema; the default is the
	// paper's adaptive schema (static for the first InitIters iterations,
	// dynamic afterwards). StaticOnly and DynamicOnly are ablations.
	Schema WeightSchema
	// DilutionGuard enables the RGPE weight-dilution guard in the dynamic
	// phase (an extension of the paper's reference [13]).
	DilutionGuard bool
	// WeightedVariance replaces Eq. 7's target-only ensemble variance with
	// the weighted average of all learners' variances (an ablation).
	WeightedVariance bool
	// TargetImprovementPct stops the session early once the best feasible
	// resource value sits at least this far (percent) below the default —
	// the paper's "until the decline in resource utilization reaches the
	// goal" stopping condition. Zero disables it.
	TargetImprovementPct float64
	// ConvergenceWindow implements the stopping rule: the session converges
	// when resource, throughput and latency of the best feasible
	// configuration all change by less than 0.5% (relative) across
	// ConvergenceWindow consecutive iterations. A zero window disables early
	// stopping (experiments run fixed budgets).
	ConvergenceWindow int
	// Drift enables drift-aware online tuning: a detector over the
	// evaluator's streaming workload signature (EWMA-smoothed, compared to
	// the current regime anchor with hysteresis) that re-triggers
	// meta-learning on regime change, plus a trust region that clamps
	// exploration to a radius around the last known-safe configuration —
	// shrinking on SLA violations, expanding on safe successes. Nil keeps
	// the stationary tuner. Drift detection needs an evaluator that
	// implements DriftingEvaluator; the trust region works with any
	// evaluator.
	Drift *DriftConfig
	// Acq tunes acquisition optimization.
	Acq bo.OptimizerConfig
	// Sparse opts the target surrogate into subset-of-data inference once
	// the observation history exceeds Sparse.Threshold
	// (gp.DefaultSparseConfig gives the paper-scale settings). The zero
	// value — and any history at or below the threshold — runs the exact
	// path bit for bit, so enabling it never perturbs short sessions.
	Sparse gp.SparseConfig
	// Recorder receives the session's telemetry (per-iteration spans with
	// phase, chosen θ, CEI value, ensemble weights, stage timings and the
	// feasibility verdict, plus spans from the GP/BO/meta layers underneath).
	// Nil records nothing. The recorder is strictly write-only: no tuning
	// decision ever reads it, so traces stay bit-identical with or without a
	// live recorder attached.
	Recorder obs.Recorder
}

// WeightSchema selects how ensemble weights are assigned over a session.
type WeightSchema int

const (
	// AdaptiveSchema is the paper's design: static (meta-feature) weights
	// for the first InitIters iterations, dynamic (ranking-loss) weights
	// afterwards (Section 6.4.3).
	AdaptiveSchema WeightSchema = iota
	// StaticOnlySchema keeps meta-feature weights for the whole session.
	StaticOnlySchema
	// DynamicOnlySchema uses ranking-loss weights from the first iteration.
	DynamicOnlySchema
)

// String returns the schema name.
func (s WeightSchema) String() string {
	switch s {
	case StaticOnlySchema:
		return "static-only"
	case DynamicOnlySchema:
		return "dynamic-only"
	default:
		return "adaptive"
	}
}

// The settings the paper fixes and no caller varies.
const (
	// fullSearchEvery throttles hyperparameter search: every third iteration
	// runs the full search, the others warm-start from the previous
	// hyperparameters with warmSearchBudget candidates.
	fullSearchEvery  = 3
	warmSearchBudget = 6
	// convergenceEps is the stopping rule's relative-change bound (0.5%).
	convergenceEps = 0.005
)

// DefaultConfig returns the paper's settings.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		InitIters:       10,
		UseWorkloadChar: true,
		DynamicSamples:  100,
		SLATolerance:    0.05,
		Acq:             bo.DefaultOptimizerConfig(),
	}
}

// ResTune is the paper's tuner: constrained Bayesian optimization over a
// meta-learner ensemble with the adaptive weight schema.
type ResTune struct {
	cfg Config
}

// New returns a ResTune tuner.
func New(cfg Config) *ResTune {
	return &ResTune{cfg: cfg}
}

// Name implements Tuner.
func (t *ResTune) Name() string {
	if t.cfg.Name != "" {
		return t.cfg.Name
	}
	if t.cfg.Corpus == nil {
		return "ResTune-w/o-ML"
	}
	return "ResTune"
}

// Run implements Tuner, executing the Section 4 iteration pipeline. It is a
// thin wrapper over Session — one session created and stepped to completion
// on the calling goroutine; a Fleet drives the same Session machinery for
// many concurrent sessions.
func (t *ResTune) Run(ev Evaluator, iters int) (*Result, error) {
	s, err := t.NewSession(ev, iters)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// observe packs a measurement into the (θ, res, tps, lat) four-tuple, with
// res selected by the session's resource kind.
func observe(theta []float64, m dbsim.Measurement, ev Evaluator) bo.Observation {
	return bo.Observation{
		Theta: theta,
		Res:   m.Resource(ev.Resource()),
		Tps:   m.TPS,
		Lat:   m.LatencyP99Ms,
	}
}

func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// LHSInit exposes the session's initial design for tests.
func LHSInit(n, dim int, seed int64) [][]float64 {
	return lhs.Maximin(n, dim, 10, rng.Derive(seed, "lhs"))
}
