package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/lhs"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Config parameterizes a tuning session. Start from DefaultConfig: New
// takes the fields as given and fills in nothing.
type Config struct {
	// Name overrides the method's display name (e.g. "ResTune-w/o-ML").
	Name string
	// Policy chooses each iteration's configuration. Nil selects the
	// paper's ResTune, configured by the fields below; the comparison
	// methods (package baselines) supply their own. A Policy is
	// single-session state, like Corpus: each session's Start resets it, so
	// sessions sharing one Policy value must run one at a time — two
	// concurrent sessions (or Fleet specs copying one Config) would race
	// on it.
	Policy Policy
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

// ResTune is a tuner built from a Config: the paper's method —
// constrained Bayesian optimization over a meta-learner ensemble with the
// adaptive weight schema — when Config.Policy is nil, a comparison
// method's policy on the same session loop otherwise.
type ResTune struct {
	cfg Config
}

// New returns the tuner a Config describes.
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

func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(b-a) / math.Abs(a)
}

// LHSInit is ResTune's initial design: a maximin Latin hypercube of n
// points drawn from the seed's "lhs" stream.
func LHSInit(n, dim int, seed int64) [][]float64 {
	return lhs.Maximin(n, dim, 10, rng.Derive(seed, "lhs"))
}

// restunePolicy is the paper's method as a session policy: an LHS design or
// the static-weight phase first, then constrained EI over the target
// surrogate — alone (ResTune-w/o-ML) or inside the meta-learning ensemble
// of the corpus's base-learners (Sections 4-6).
type restunePolicy struct {
	cfg  Config
	name string

	r      *rand.Rand
	design [][]float64
	// tri is the target surrogate; it persists across iterations so
	// hyperparameter search warm-starts.
	tri *bo.TriGP
	// resets is the View.Resets the corpus shortlist was computed for.
	resets int

	// Update's choices for Propose and annotate.
	phase     string
	surrogate bo.BatchSurrogate
	cons      bo.Constraints
	bestVal   float64
	weights   []float64
	shortlist int

	acq      bo.AcqFunc
	acqBatch bo.BatchAcqFunc
	// incBuf backs the per-iteration incumbent set so acquisition start
	// points stop allocating each step.
	incBuf [][]float64
}

// Start implements Policy: corpus activation, the acquisition stream and the
// LHS fallback design.
func (p *restunePolicy) Start(v *View) error {
	if p.cfg.Corpus != nil {
		// One shortlist per regime: the target meta-feature only changes at a
		// drift reset, so the index query does not run every iteration.
		if err := p.cfg.Corpus.Activate(v.MetaFeature); err != nil {
			return fmt.Errorf("core: activating corpus: %w", err)
		}
	}
	p.r = rng.Derive(v.Seed, "restune:"+p.name)
	p.design = LHSInit(v.InitIters, v.Dim, v.Seed)
	// Both surrogates (TriGP and the meta ensemble) batch, so probes are
	// scored block-at-a-time; the batch path is bit-identical to acq.
	p.acq = func(x []float64) float64 {
		return bo.CEI(p.surrogate, x, p.bestVal, p.cons)
	}
	p.acqBatch = func(X [][]float64, out []float64) {
		bo.CEIBatch(p.surrogate, X, p.bestVal, p.cons, out)
	}
	return nil
}

// Update implements Policy: fit the target base-learner and, with a corpus,
// the ensemble weights.
func (p *restunePolicy) Update(v *View) error {
	cfg := &p.cfg
	iter := v.Iter
	if cfg.Corpus != nil && v.Resets != p.resets {
		// A drift reset replaced the target meta-feature: re-trigger
		// meta-learning by recomputing the shortlist against the new regime.
		p.resets = v.Resets
		if err := cfg.Corpus.Activate(v.MetaFeature); err != nil {
			return fmt.Errorf("core: re-activating corpus after drift at iter %d: %w", iter, err)
		}
	}
	p.weights, p.shortlist = nil, 0
	staticPhase := cfg.Corpus != nil && cfg.UseWorkloadChar && iter <= v.InitIters
	if iter <= v.InitIters && !staticPhase {
		p.phase = "lhs"
		return nil
	}

	if p.tri == nil {
		p.tri = bo.NewTriGP(v.Dim, v.Seed)
		// Long-history sessions cap the cubic surrogate fit on an anchor
		// subset; below the threshold — and under the zero config — this
		// is bit-identical to the exact tuner (gp.SparseConfig).
		p.tri.SetSparse(cfg.Sparse)
		p.tri.SetRecorder(cfg.Recorder)
	}
	// Warm-started hyperparameter search: full budget every
	// fullSearchEvery-th iteration, a small budget otherwise (the incumbent
	// hyperparameters are always retained).
	budget := 0
	if iter%fullSearchEvery != 0 {
		budget = warmSearchBudget
	}
	// The session's history is preallocated and append-only, so the
	// snapshot handed to the model layer is just the current slice header.
	hist := v.History
	if v.Weights != nil {
		// Forgetting active: the target surrogate (and therefore the meta
		// ensemble's target learner wrapping it) conditions on the decayed
		// weights. Weights only change at tier-1 events, so between events
		// the GP's incremental-fit path stays open.
		p.tri.SetObservationWeights(v.Weights)
	}
	if err := p.tri.FitWithBudget(hist, budget); err != nil {
		return fmt.Errorf("core: target model at iter %d: %w", iter, err)
	}

	if cfg.Corpus == nil {
		p.phase = "cbo"
		p.surrogate = p.tri
		p.cons = p.tri.RawConstraints(v.SLA)
		p.bestVal = math.NaN()
		if v.HasBest {
			p.bestVal = p.tri.Standardizer(bo.Res).Apply(v.Best.Res)
		}
		return nil
	}

	target := meta.NewBaseLearnerFromSurrogate("target", "target", "target", v.MetaFeature, hist, p.tri)
	base, activeIDs, err := cfg.Corpus.ActiveLearners()
	if err != nil {
		return fmt.Errorf("core: corpus learners at iter %d: %w", iter, err)
	}
	var w []float64
	useStatic := staticPhase
	switch cfg.Schema {
	case StaticOnlySchema:
		useStatic = true
	case DynamicOnlySchema:
		useStatic = false
	}
	if useStatic {
		w = meta.StaticWeights(base, v.MetaFeature, true, meta.EpanechnikovBandwidth)
		p.phase = "static"
	} else {
		w = cfg.Corpus.DynamicWeights(base, target,
			meta.DynamicOptions{Samples: cfg.DynamicSamples, DilutionGuard: cfg.DilutionGuard, Recorder: cfg.Recorder},
			rng.Derive(v.Seed, fmt.Sprintf("dyn:%d", iter)))
		p.phase = "dynamic"
	}
	ens := meta.NewEnsemble(base, target, w)
	if cfg.WeightedVariance {
		ens = ens.WithWeightedVariance()
	}
	// Fixed-shape weight vector over the whole corpus (zeros off the
	// shortlist) so fig6-style weight traces keep one column per base task.
	// On the exact path this is the identity.
	p.weights = cfg.Corpus.ScatterWeights(activeIDs, ens.Weights())
	p.shortlist = len(base)
	p.surrogate = ens
	p.cons = ens.RescaledConstraints(v.Default)
	p.bestVal = math.NaN()
	if v.HasBest {
		p.bestVal, _ = ens.Predict(bo.Res, v.Best.Theta)
	}
	return nil
}

// Propose implements Policy: the next LHS point, or the maximizer of the
// constrained acquisition.
func (p *restunePolicy) Propose(v *View) ([]float64, string) {
	if p.phase == "lhs" {
		return p.design[v.Iter-1], p.phase
	}
	// Acquisition start points: the best feasible configuration, the
	// default, and the most recent probe — views of history entries in a
	// reused buffer, so nothing is copied.
	inc := p.incBuf[:0]
	if v.HasBest {
		inc = append(inc, v.Best.Theta)
	}
	inc = append(inc, v.Default, v.History[len(v.History)-1].Theta)
	p.incBuf = inc
	return bo.OptimizeAcqBatch(p.acq, p.acqBatch, v.Dim, v.Acq, inc, p.r), p.phase
}

// annotate implements annotator: the ensemble weights and shortlist size,
// and in telemetry the CEI value at the evaluated θ and the target
// surrogate's sparse-inference state.
func (p *restunePolicy) annotate(it *Iteration, theta []float64, attrs []obs.Attr) []obs.Attr {
	it.Weights, it.Shortlist = p.weights, p.shortlist
	if attrs == nil {
		return nil
	}
	if p.phase != "lhs" {
		// One extra pure acquisition evaluation at the chosen point. No RNG
		// is consumed, so the tuning trace is unchanged.
		if v := p.acq(theta); !math.IsNaN(v) && !math.IsInf(v, 0) {
			attrs = append(attrs, obs.Float("cei", v))
		}
	}
	if len(it.Weights) > 0 {
		attrs = append(attrs, obs.Floats("weights", it.Weights))
	}
	if it.Shortlist > 0 {
		attrs = append(attrs, obs.Int("shortlist", it.Shortlist))
	}
	if p.tri != nil {
		if st := p.tri.SparseStats(); st.Active {
			// Sparse-inference telemetry, emitted only while the anchor
			// subset is live so exact-mode traces are byte-identical to
			// sessions built before the sparse path existed.
			attrs = append(attrs,
				obs.Int("gp_sparse_m", st.Anchors),
				obs.Int("gp_sparse_reselect", st.Reselects))
		}
	}
	return attrs
}
