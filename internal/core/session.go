package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bo"
	"repro/internal/knobs"
	"repro/internal/lhs"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Session is one resumable tuning session as a value: all the state
// ResTune.Run used to keep on its goroutine's stack — the RNG stream, the
// observation history, the persistent target surrogate, the recorder handles
// and the iteration cursor — extracted so a scheduler can interleave many
// sessions on a bounded worker pool. A Session is single-owner: exactly one
// goroutine may call Step at a time, but ownership may migrate between
// goroutines across Step calls (the Fleet hands sessions off through a
// channel, whose happens-before edge publishes the state).
//
// The session's trace is a pure function of (Config, Evaluator, budget):
// whether its Step calls run back-to-back on one goroutine or interleaved
// with hundreds of concurrent sessions, the recorded iterations are
// bit-identical. Per-iteration scratch (the history track, incumbent set and
// iteration slice) is preallocated at Start so steady-state stepping
// allocates only what the model layers below pool themselves.
type Session struct {
	cfg    Config
	method string
	ev     Evaluator
	space  *knobs.Space
	dim    int

	useMeta bool
	r       *rand.Rand

	rec       obs.Recorder
	iterGauge obs.Gauge
	bestGauge obs.Gauge
	span      obs.Span

	res *Result
	// h is the history track; best is its incumbent — the feasible
	// observation of lowest Res, the first on ties, Res +Inf until there is
	// one — kept by record as h grows: h.BestFeasible(res.SLA) without the
	// per-iteration rescans.
	h            bo.History
	best         bo.Observation
	hasBest      bool
	defaultTheta []float64
	lhsDesign    [][]float64
	tri          *bo.TriGP

	budget  int
	iter    int
	started bool
	done    bool
	err     error

	// drift is the online drift detector + trust region (nil when
	// Config.Drift is unset); loadAware sessions judge the throughput SLA
	// against the load-scaled threshold reported by a DriftingEvaluator.
	drift       *driftState
	loadAware   bool
	baseLoad    float64
	driftEvents obs.Counter
	driftTrans  obs.Counter
	driftResets obs.Counter
	radiusGauge obs.Gauge
	weightGauge obs.Gauge

	// obsW holds the session's per-observation GP forgetting weights,
	// parallel to h. nil until the first tier-1 drift event — the nil path
	// is bit-identical to the pre-forgetting tuner — then every existing
	// weight decays by driftForget per translation (floored at
	// driftWeightFloor) while new observations enter at weight 1.
	obsW []float64

	// incBuf backs the per-iteration incumbent set so acquisition start
	// points stop allocating each step.
	incBuf [][]float64
}

// NewSession validates the configuration and binds a session to an
// evaluator and iteration budget without doing any work: the default-config
// probe, corpus activation and model fitting all happen inside Step, so a
// scheduler can enqueue hundreds of sessions cheaply and pay their cost on
// the worker pool.
func (t *ResTune) NewSession(ev Evaluator, iters int) (*Session, error) {
	cfg := t.cfg
	space := ev.Space()
	rec := obs.OrNop(cfg.Recorder)
	cfg.Acq.Recorder = rec
	return &Session{
		cfg:       cfg,
		method:    t.Name(),
		ev:        ev,
		space:     space,
		dim:       space.Dim(),
		useMeta:   cfg.Corpus != nil,
		r:         rng.Derive(cfg.Seed, "restune:"+t.Name()),
		rec:       rec,
		iterGauge: rec.Gauge("core.iterations"),
		bestGauge: rec.Gauge("core.best_feasible_res"),
		budget:    iters,
	}, nil
}

// NewSession builds a session directly from a config (the Fleet entry
// point); it is New(cfg).NewSession(ev, iters).
func NewSession(cfg Config, ev Evaluator, iters int) (*Session, error) {
	return New(cfg).NewSession(ev, iters)
}

// Name returns the session's method name.
func (s *Session) Name() string { return s.method }

// Done reports whether the session has finished (successfully or not).
func (s *Session) Done() bool { return s.done || s.err != nil }

// Err returns the error that stopped the session, if any.
func (s *Session) Err() error { return s.err }

// Result returns the session's result so far. It is only complete once
// Done reports true with a nil Err; a scheduler may still read it
// mid-session for progress displays.
func (s *Session) Result() *Result { return s.res }

// start runs iteration 0: corpus activation, the DBA-default probe that
// fixes the SLA thresholds, and the LHS fallback design.
func (s *Session) start() error {
	cfg := &s.cfg
	if cfg.Corpus != nil {
		// One shortlist per session: the target meta-feature is fixed, so
		// the index query happens once, not per iteration.
		if err := cfg.Corpus.Activate(cfg.TargetMetaFeature); err != nil {
			return fmt.Errorf("core: activating corpus: %w", err)
		}
	}
	s.span = s.rec.Span("core.session",
		obs.String("method", s.method), obs.Int("budget", s.budget))

	// Iteration 0: measure the DBA default; its throughput and latency
	// become the SLA thresholds λ_tps, λ_lat (Section 3).
	defaultNative := s.ev.DefaultNative()
	s.defaultTheta = s.space.Normalize(defaultNative)
	s.res = &Result{Method: s.method}
	m0 := s.ev.Measure(defaultNative)
	s.res.DefaultMeasurement = m0
	s.res.SLA = bo.SLA{LambdaTps: m0.TPS, LambdaLat: m0.LatencyP99Ms, Tolerance: cfg.SLATolerance}
	s.res.Iterations = make([]Iteration, 0, s.budget+1)
	s.res.Iterations = append(s.res.Iterations, Iteration{
		Index:       0,
		Phase:       "default",
		Observation: observe(s.defaultTheta, m0, s.ev),
		Measurement: m0,
		Feasible:    true,
	})
	// The history track is preallocated for the whole budget, so appends
	// never move it: slices of it handed to the model layer (the target
	// surrogate and base-learner) stay valid as the session grows.
	s.h = make(bo.History, 0, s.budget+1)
	s.best = bo.Observation{Res: math.Inf(1)}
	s.record(s.res.Iterations[0].Observation)

	// Pre-compute the LHS fallback design once. The target surrogate
	// persists across iterations so hyperparameter search warm-starts.
	s.lhsDesign = lhs.Maximin(cfg.InitIters, s.dim, 10, rng.Derive(cfg.Seed, "lhs"))

	// Drift-aware setup: the default probe fixes the base load (the SLA's
	// throughput threshold scales with the offered load relative to it) and
	// anchors the drift detector's regime signature.
	s.baseLoad = 1
	dev, drifting := s.ev.(DriftingEvaluator)
	if drifting {
		s.loadAware = true
		if l := dev.CurrentLoad(); l > 0 {
			s.baseLoad = l
		}
	}
	if cfg.Drift != nil {
		s.drift = newDriftState(*cfg.Drift, cfg.InitIters, s.defaultTheta)
		if drifting {
			// The single retaining use of the evaluator's signature: the
			// returned slice may alias the evaluator's buffer (valid only
			// until the next Measure), so anchor and smooth copy it.
			sig := dev.CurrentMetaFeature()
			s.drift.anchor = append([]float64(nil), sig...)
			s.drift.smooth = append([]float64(nil), sig...)
		}
		s.driftEvents = s.rec.Counter("core.drift_events")
		s.driftTrans = s.rec.Counter("core.drift_translations")
		s.driftResets = s.rec.Counter("core.drift_resets")
		s.radiusGauge = s.rec.Gauge("core.trust_radius")
		s.weightGauge = s.rec.Gauge("core.oldest_obs_weight")
		s.radiusGauge.Set(s.drift.radius)
	}
	return nil
}

// Step advances the session by one unit of work — iteration 0 (the default
// probe) on the first call, one tuning iteration per call after — and
// reports whether the session is finished. After an error every further
// Step returns (true, sameError).
func (s *Session) Step() (bool, error) {
	if s.err != nil || s.done {
		return true, s.err
	}
	if !s.started {
		if err := s.start(); err != nil {
			s.fail(err)
			return true, s.err
		}
		s.started = true
		if s.budget < 1 {
			s.finish()
			return true, nil
		}
		return false, nil
	}
	s.iter++
	if err := s.runIteration(s.iter); err != nil {
		s.fail(err)
		return true, s.err
	}
	cfg := &s.cfg
	if cfg.TargetImprovementPct > 0 && s.res.ImprovementPct() >= cfg.TargetImprovementPct {
		s.res.Converged = true
		s.finish()
		return true, nil
	}
	if sessionConverged(s.res, cfg.ConvergenceWindow) {
		s.res.Converged = true
		s.finish()
		return true, nil
	}
	if s.iter >= s.budget {
		s.finish()
		return true, nil
	}
	return false, nil
}

func (s *Session) finish() {
	s.done = true
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
}

func (s *Session) fail(err error) {
	s.err = err
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
}

// Run steps the session to completion — the single-session path ResTune.Run
// delegates to.
func (s *Session) Run() (*Result, error) {
	for {
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.res, nil
		}
	}
}

// runIteration executes the Section 4 iteration pipeline for iteration iter
// (1-based; iteration 0 is the default probe run by start).
func (s *Session) runIteration(iter int) error {
	cfg := &s.cfg
	rec := s.rec
	iterSpan := rec.Span("core.iteration")
	it := Iteration{Index: iter}

	staticPhase := s.useMeta && cfg.UseWorkloadChar && iter <= cfg.InitIters
	lhsPhase := !s.useMeta && iter <= cfg.InitIters ||
		(s.useMeta && !cfg.UseWorkloadChar && iter <= cfg.InitIters)

	// --- Model update: fit the target base-learner and ensemble weights.
	tModel := time.Now()
	var target *meta.BaseLearner
	var surrogate bo.BatchSurrogate
	var cons bo.Constraints
	var bestVal = math.NaN()

	if !lhsPhase {
		if s.tri == nil {
			s.tri = bo.NewTriGP(s.dim, cfg.Seed)
			// Long-history sessions cap the cubic surrogate fit on an anchor
			// subset; below the threshold — and under the zero config — this
			// is bit-identical to the exact tuner (gp.SparseConfig).
			s.tri.SetSparse(cfg.Sparse)
			s.tri.SetRecorder(rec)
		}
		// Warm-started hyperparameter search: full budget every
		// fullSearchEvery-th iteration, a small budget otherwise (the
		// incumbent hyperparameters are always retained).
		budget := 0
		if iter%fullSearchEvery != 0 {
			budget = warmSearchBudget
		}
		// s.h is preallocated for the whole budget and append-only, so the
		// snapshot handed to the model layer is just the current slice
		// header — no per-iteration clone (the old cloneHistory hot path).
		hist := s.h
		if s.obsW != nil {
			// Forgetting active: the target surrogate (and therefore the
			// meta ensemble's target learner wrapping it) conditions on
			// the decayed weights. Weights only change at tier-1 events,
			// so between events the GP's incremental-fit path stays open.
			s.tri.SetObservationWeights(s.obsW[:len(hist)])
		}
		if err := s.tri.FitWithBudget(hist, budget); err != nil {
			return fmt.Errorf("core: target model at iter %d: %w", iter, err)
		}
		target = meta.NewBaseLearnerFromSurrogate("target", "target", "target",
			cfg.TargetMetaFeature, hist, s.tri)
	}

	if s.useMeta && !lhsPhase {
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
			w = meta.StaticWeights(base, cfg.TargetMetaFeature, true, meta.EpanechnikovBandwidth)
			it.Phase = "static"
		} else {
			w = meta.DynamicWeightsOpts(base, target,
				meta.DynamicOptions{Samples: cfg.DynamicSamples, DilutionGuard: cfg.DilutionGuard, Recorder: rec},
				rng.Derive(cfg.Seed, fmt.Sprintf("dyn:%d", iter)))
			it.Phase = "dynamic"
		}
		ens := meta.NewEnsemble(base, target, w)
		if cfg.WeightedVariance {
			ens = ens.WithWeightedVariance()
		}
		// Fixed-shape weight vector over the whole corpus (zeros off the
		// shortlist) so fig6-style weight traces keep one column per base
		// task. On the exact path this is the identity.
		it.Weights = cfg.Corpus.ScatterWeights(activeIDs, ens.Weights())
		it.Shortlist = len(base)
		surrogate = ens
		cons = ens.RescaledConstraints(s.defaultTheta)
		if s.hasBest {
			mu, _ := ens.Predict(bo.Res, s.best.Theta)
			bestVal = mu
		}
	} else if !lhsPhase {
		surrogate = s.tri
		cons = s.tri.RawConstraints(s.res.SLA)
		if s.hasBest {
			bestVal = s.tri.Standardizer(bo.Res).Apply(s.best.Res)
		}
		it.Phase = "cbo"
	}
	it.ModelUpdate = time.Since(tModel)

	// --- Knobs recommendation: optimize the constrained acquisition.
	tRec := time.Now()
	// Trust region: past warm-up every candidate — probes, incumbents and
	// local refinements — is confined to a box of half-width radius around
	// the last known-safe configuration.
	acqCfg := cfg.Acq
	var trustBox *bo.Box
	if s.drift != nil && s.drift.active(iter) {
		trustBox = s.drift.box(s.dim)
		acqCfg.Bounds = trustBox
		it.TrustRadius = s.drift.radius
		it.TrustCenter = append([]float64(nil), s.drift.center...)
	}
	var theta []float64
	var acqFn bo.AcqFunc
	if lhsPhase {
		theta = s.lhsDesign[iter-1]
		it.Phase = "lhs"
	} else {
		acq := func(x []float64) float64 {
			return bo.CEI(surrogate, x, bestVal, cons)
		}
		acqFn = acq
		// Both surrogates (TriGP and the meta ensemble) batch, so probes
		// are scored block-at-a-time; the batch path is bit-identical to
		// acq, keeping traces unchanged.
		acqBatch := func(X [][]float64, out []float64) {
			bo.CEIBatch(surrogate, X, bestVal, cons, out)
		}
		incumbents := s.incumbents()
		theta = bo.OptimizeAcqBatch(acq, acqBatch, s.dim, acqCfg, incumbents, s.r)
	}
	theta = s.space.Quantize(theta)
	if trustBox != nil {
		// Quantization snaps to the knob grid and can step a hair outside
		// the region; project back so the safety invariant holds exactly
		// for every evaluated configuration.
		theta = trustBox.Clamp(append([]float64(nil), theta...))
	}
	it.Recommend = time.Since(tRec)

	// --- Target workload replay.
	tRep := time.Now()
	native := s.space.Denormalize(theta)
	meas := s.ev.Measure(native)
	it.Replay = time.Since(tRep)

	it.Measurement = meas
	it.Observation = observe(theta, meas, s.ev)
	it.LoadMult = 1
	var sig []float64
	if dev, ok := s.ev.(DriftingEvaluator); ok {
		it.LoadMult = dev.CurrentLoad()
		sig = dev.CurrentMetaFeature()
	}
	if s.loadAware && it.LoadMult > 0 && s.baseLoad > 0 {
		// Demand-normalize throughput: the recorded observation is the
		// throughput relative to the offered load (scaled to the default
		// probe's load), so λ_tps keeps meaning "serve the offered demand as
		// well as the default did" at any point of the day — and the
		// surrogate sees a load-invariant target instead of diurnal swing it
		// can only treat as noise. A config that saturates under high load
		// still shows a collapsed normalized value: that is real signal.
		it.Observation.Tps /= it.LoadMult / s.baseLoad
	}
	it.Feasible = s.res.SLA.Feasible(it.Observation)
	if s.drift != nil {
		// Trust-region update (recentre/expand on safe success, shrink on
		// violation) and drift detection over the workload signature. The
		// response is graduated: a tier-1 event translates (anchor moved,
		// incumbent aged, GP observation weights decayed — the surrogate
		// forgets the old regime gradually); a tier-2 event is the full
		// reset, which also re-triggers meta-learning by recomputing the
		// corpus shortlist against the new regime signature.
		it.DriftDistance, it.DriftTier = s.drift.observe(iter, theta, it.Feasible, it.Observation.Res, sig)
		it.DriftEvent = it.DriftTier != DriftNone
		switch it.DriftTier {
		case DriftTranslate:
			s.driftEvents.Add(1)
			s.driftTrans.Add(1)
			s.decayObservationWeights()
		case DriftReset:
			s.driftEvents.Add(1)
			s.driftResets.Add(1)
			cfg.TargetMetaFeature = append([]float64(nil), s.drift.anchor...)
			if cfg.Corpus != nil {
				if err := cfg.Corpus.Activate(cfg.TargetMetaFeature); err != nil {
					return fmt.Errorf("core: re-activating corpus after drift at iter %d: %w", iter, err)
				}
			}
		}
		s.radiusGauge.Set(s.drift.radius)
	}
	s.res.Iterations = append(s.res.Iterations, it)
	s.record(it.Observation)
	if s.obsW != nil {
		// The new observation enters at full weight: it is the freshest
		// evidence of the (possibly just-translated) current regime.
		s.obsW = append(s.obsW, 1)
	}

	if rec.Enabled() {
		attrs := []obs.Attr{
			obs.Int("iter", iter),
			obs.String("phase", it.Phase),
			obs.Floats("theta", theta),
			obs.Bool("feasible", it.Feasible),
			obs.Float("res", it.Observation.Res),
			obs.Float("tps", it.Observation.Tps),
			obs.Float("lat", it.Observation.Lat),
			obs.Float("model_update_ms", float64(it.ModelUpdate.Microseconds())/1e3),
			obs.Float("recommend_ms", float64(it.Recommend.Microseconds())/1e3),
			obs.Float("replay_ms", float64(it.Replay.Microseconds())/1e3),
		}
		if acqFn != nil {
			// One extra pure acquisition evaluation at the chosen point.
			// No RNG is consumed, so the tuning trace is unchanged.
			if v := acqFn(theta); !math.IsNaN(v) && !math.IsInf(v, 0) {
				attrs = append(attrs, obs.Float("cei", v))
			}
		}
		if len(it.Weights) > 0 {
			attrs = append(attrs, obs.Floats("weights", it.Weights))
		}
		if it.Shortlist > 0 {
			attrs = append(attrs, obs.Int("shortlist", it.Shortlist))
		}
		if s.loadAware {
			attrs = append(attrs, obs.Float("load", it.LoadMult))
		}
		if s.tri != nil {
			if st := s.tri.SparseStats(); st.Active {
				// Sparse-inference telemetry, emitted only while the anchor
				// subset is live so exact-mode traces are byte-identical to
				// sessions built before the sparse path existed.
				attrs = append(attrs,
					obs.Int("gp_sparse_m", st.Anchors),
					obs.Int("gp_sparse_reselect", st.Reselects))
			}
		}
		if s.drift != nil {
			attrs = append(attrs,
				obs.Float("drift_dist", it.DriftDistance),
				obs.Bool("drift_event", it.DriftEvent),
				obs.Int("drift_tier", it.DriftTier),
				obs.Float("trust_radius", s.drift.radius))
			if s.obsW != nil {
				// Forgetting telemetry: the oldest observation's weight is
				// driftForget^k after k translations — how much of the original
				// regime's evidence the surrogate still credits.
				attrs = append(attrs, obs.Float("oldest_obs_weight", s.obsW[0]))
			}
		}
		iterSpan.SetAttrs(attrs...)
		s.iterGauge.Set(float64(iter))
		if s.hasBest {
			s.bestGauge.Set(s.best.Res)
		}
	}
	iterSpan.End()
	return nil
}

// record appends an observation to the history and moves the incumbent by
// History.BestFeasible's rule.
func (s *Session) record(o bo.Observation) {
	s.h = append(s.h, o)
	if s.res.SLA.Feasible(o) && o.Res < s.best.Res {
		s.best, s.hasBest = o, true
	}
}

// decayObservationWeights applies one tier-1 forgetting step: every
// existing observation's GP weight decays by driftForget (floored at
// driftWeightFloor so noise inflation stays finite). The weight track is
// lazily materialized at the first translation — until then it is nil and
// the GP fit path is bit-identical to the pre-forgetting tuner.
func (s *Session) decayObservationWeights() {
	if s.obsW == nil {
		s.obsW = make([]float64, len(s.h), s.budget+1)
		for i := range s.obsW {
			s.obsW[i] = 1
		}
	}
	for i, w := range s.obsW {
		s.obsW[i] = max64(driftWeightFloor, w*driftForget)
	}
	s.weightGauge.Set(s.obsW[0])
}

// incumbents assembles acquisition start points — the best feasible
// configuration, the default, and the most recent probe — into the
// session's reusable buffer (the slices appended are views of history
// entries, so no copying happens either).
func (s *Session) incumbents() [][]float64 {
	inc := s.incBuf[:0]
	if s.hasBest {
		inc = append(inc, s.best.Theta)
	}
	inc = append(inc, s.defaultTheta)
	if len(s.h) > 0 {
		inc = append(inc, s.h[len(s.h)-1].Theta)
	}
	s.incBuf = inc
	return inc
}

// sessionConverged applies the stopping rule: best-feasible res/tps/lat all
// stable within convergenceEps for window consecutive iterations.
func sessionConverged(res *Result, window int) bool {
	from := len(res.Iterations) - window - 1
	if window <= 0 || from < 0 {
		return false
	}
	// One pass: best is the incumbent of the first i+1 iterations, prev the
	// one before it; only the last window+1 of them are compared.
	best, prev := bo.Observation{Res: math.Inf(1)}, bo.Observation{}
	for i, it := range res.Iterations {
		if o := it.Observation; res.SLA.Feasible(o) && o.Res < best.Res {
			best = o
		}
		if i < from {
			continue
		}
		if math.IsInf(best.Res, 1) {
			return false
		}
		if i > from && (relChange(prev.Res, best.Res) > convergenceEps ||
			relChange(prev.Tps, best.Tps) > convergenceEps ||
			relChange(prev.Lat, best.Lat) > convergenceEps) {
			return false
		}
		prev = best
	}
	return true
}
