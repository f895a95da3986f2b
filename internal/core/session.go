package core

import (
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/knobs"
	"repro/internal/obs"
)

// Session is one resumable tuning session as a value: all the state a
// tuning run keeps — the policy, the observation history, the incumbent, the
// recorder handles and the iteration cursor — held so a scheduler can
// interleave many sessions on a bounded worker pool. A Session is
// single-owner: exactly one goroutine may call Step at a time, but ownership
// may migrate between goroutines across Step calls (the Fleet hands sessions
// off through a channel, whose happens-before edge publishes the state).
//
// Every method runs this one loop; its Policy decides only the model and the
// next configuration. The session's trace is a pure function of (Config,
// Evaluator, budget): whether its Step calls run back-to-back on one
// goroutine or interleaved with hundreds of concurrent sessions, the
// recorded iterations are bit-identical. The history track and iteration
// slice are preallocated at Start so steady-state stepping allocates only
// what the policy and the model layers below it allocate themselves.
type Session struct {
	cfg    Config
	method string
	ev     Evaluator
	space  *knobs.Space

	policy Policy
	annot  annotator // the policy's, when it annotates its iterations
	// view is the policy's window and the session's own record: history,
	// incumbent, default θ, forgetting weights and the drift-reset target
	// meta-feature all live in it, kept current by start, record and the
	// drift response.
	view View

	rec       obs.Recorder
	iterGauge obs.Gauge
	bestGauge obs.Gauge
	span      obs.Span

	res *Result

	budget  int
	iter    int
	started bool
	done    bool // finished, successfully or with err
	err     error

	// drift is the drift response — detector, trust region, forgetting
	// (nil when Config.Drift is unset). drifting is the evaluator as a
	// DriftingEvaluator (nil when it is not one): such sessions judge the
	// throughput SLA against the load-scaled threshold it reports, relative
	// to baseLoad, the default probe's load.
	drift    *driftState
	drifting DriftingEvaluator
	baseLoad float64
}

// NewSession validates the configuration and binds a session to an
// evaluator and iteration budget without doing any work: the default-config
// probe, the policy's start and all model fitting happen inside Step, so a
// scheduler can enqueue hundreds of sessions cheaply and pay their cost on
// the worker pool. A nil Config.Policy is resolved here, once, to the
// paper's ResTune policy.
func (t *ResTune) NewSession(ev Evaluator, iters int) (*Session, error) {
	cfg := t.cfg
	space := ev.Space()
	rec := obs.OrNop(cfg.Recorder)
	cfg.Recorder = rec
	cfg.Acq.Recorder = rec
	policy := cfg.Policy
	if policy == nil {
		policy = &restunePolicy{cfg: cfg, name: t.Name()}
	}
	annot, _ := policy.(annotator)
	return &Session{
		cfg:       cfg,
		method:    t.Name(),
		ev:        ev,
		space:     space,
		policy:    policy,
		annot:     annot,
		view:      View{Seed: cfg.Seed, InitIters: cfg.InitIters, Dim: space.Dim(), MetaFeature: cfg.TargetMetaFeature},
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
func (s *Session) Done() bool { return s.done }

// Err returns the error that stopped the session, if any.
func (s *Session) Err() error { return s.err }

// Result returns the session's result so far. It is only complete once
// Done reports true with a nil Err; a scheduler may still read it
// mid-session for progress displays.
func (s *Session) Result() *Result { return s.res }

// start runs iteration 0 — the DBA-default probe that fixes the SLA
// thresholds — then starts the policy.
func (s *Session) start() error {
	cfg := &s.cfg
	v := &s.view
	s.span = s.rec.Span("core.session",
		obs.String("method", s.method), obs.Int("budget", s.budget))

	// Iteration 0: measure the DBA default; its throughput and latency
	// become the SLA thresholds λ_tps, λ_lat (Section 3).
	defaultNative := s.ev.DefaultNative()
	v.Default = s.space.Normalize(defaultNative)
	it := Iteration{Index: 0, Phase: "default", Feasible: true}
	s.measure(&it, v.Default, defaultNative)
	m0 := it.Measurement
	v.SLA = bo.SLA{LambdaTps: m0.TPS, LambdaLat: m0.LatencyP99Ms, Tolerance: cfg.SLATolerance}
	s.res = &Result{Method: s.method, SLA: v.SLA, DefaultMeasurement: m0}
	s.res.Iterations = make([]Iteration, 0, s.budget+1)
	// The history track is preallocated for the whole budget, so appends
	// never move it: slices of it handed to the model layer (a target
	// surrogate, a base-learner) stay valid as the session grows.
	v.History = make(bo.History, 0, s.budget+1)
	v.Best = bo.Observation{Res: math.Inf(1)}
	s.record(it)

	// The default probe fixes the base load (the SLA's throughput
	// threshold scales with the offered load relative to it) and the drift
	// response's first regime signature.
	s.baseLoad = 1
	var sig []float64
	s.drifting, _ = s.ev.(DriftingEvaluator)
	if s.drifting != nil {
		if l := s.drifting.CurrentLoad(); l > 0 {
			s.baseLoad = l
		}
		sig = s.drifting.CurrentMetaFeature()
	}
	if cfg.Drift != nil {
		s.drift = newDriftState(*cfg.Drift, cfg.InitIters, v.Default, sig, s.rec)
	}
	v.Acq = cfg.Acq
	return s.policy.Start(v)
}

// Step advances the session by one unit of work — iteration 0 (the default
// probe) on the first call, one tuning iteration per call after — and
// reports whether the session is finished. After an error every further
// Step returns (true, sameError).
func (s *Session) Step() (bool, error) {
	if s.done {
		return true, s.err
	}
	if !s.started {
		s.started = true
		if err := s.start(); err != nil || s.budget < 1 {
			return s.end(err)
		}
		return false, nil
	}
	s.iter++
	if err := s.runIteration(s.iter); err != nil {
		return s.end(err)
	}
	cfg := &s.cfg
	if cfg.TargetImprovementPct > 0 && s.res.ImprovementPct() >= cfg.TargetImprovementPct ||
		sessionConverged(s.res, cfg.ConvergenceWindow) {
		s.res.Converged = true
		return s.end(nil)
	}
	if s.iter >= s.budget {
		return s.end(nil)
	}
	return false, nil
}

// end finishes the session, successfully when err is nil.
func (s *Session) end(err error) (bool, error) {
	s.done, s.err = true, err
	if s.span != nil {
		s.span.End()
		s.span = nil
	}
	return true, err
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
// (1-based; iteration 0 is the default probe run by start): the policy's
// model update and recommendation, then quantize → trust-region clamp →
// replay → drift response → record.
func (s *Session) runIteration(iter int) error {
	v := &s.view
	rec := s.rec
	iterSpan := rec.Span("core.iteration")
	it := Iteration{Index: iter}

	v.Iter = iter
	v.Acq = s.cfg.Acq
	var trustBox *bo.Box
	if s.drift != nil {
		if trustBox = s.drift.region(iter, &it); trustBox != nil {
			v.Acq.Bounds = trustBox
		}
	}

	// --- Model update.
	tModel := time.Now()
	if err := s.policy.Update(v); err != nil {
		return err
	}
	it.ModelUpdate = time.Since(tModel)

	// --- Knobs recommendation.
	tRec := time.Now()
	theta, phase := s.policy.Propose(v)
	it.Phase = phase
	theta = s.space.Quantize(theta)
	if trustBox != nil {
		// Quantization snaps to the knob grid and can step a hair outside
		// the region; project back (in place: Quantize returned a fresh
		// slice) so the safety invariant holds exactly for every evaluated
		// configuration.
		theta = trustBox.Clamp(theta)
	}
	it.Recommend = time.Since(tRec)

	// --- Target workload replay.
	s.measure(&it, theta, s.space.Denormalize(theta))
	it.LoadMult = 1
	var sig []float64
	if s.drifting != nil {
		it.LoadMult = s.drifting.CurrentLoad()
		sig = s.drifting.CurrentMetaFeature()
	}
	if s.drifting != nil && it.LoadMult > 0 {
		// Demand-normalize throughput: the recorded observation is the
		// throughput relative to the offered load (scaled to the default
		// probe's load), so λ_tps keeps meaning "serve the offered demand as
		// well as the default did" at any point of the day — and the
		// surrogate sees a load-invariant target instead of diurnal swing it
		// can only treat as noise. A config that saturates under high load
		// still shows a collapsed normalized value: that is real signal.
		it.Observation.Tps /= it.LoadMult / s.baseLoad
	}
	it.Feasible = v.SLA.Feasible(it.Observation)
	if s.drift != nil {
		s.drift.respond(iter, &it, theta, sig, v)
	}

	var attrs []obs.Attr
	if rec.Enabled() {
		attrs = []obs.Attr{
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
	}
	if s.annot != nil {
		attrs = s.annot.annotate(&it, theta, attrs)
	}
	s.record(it)

	if rec.Enabled() {
		if s.drifting != nil {
			attrs = append(attrs, obs.Float("load", it.LoadMult))
		}
		if s.drift != nil {
			attrs = s.drift.appendAttrs(attrs, &it, v.Weights)
		}
		iterSpan.SetAttrs(attrs...)
		s.iterGauge.Set(float64(iter))
		if v.HasBest {
			s.bestGauge.Set(v.Best.Res)
		}
	}
	iterSpan.End()
	return nil
}

// measure replays one configuration — the session's only call into the
// evaluator's Measure — and fills the iteration's measurement, replay time
// and (θ, res, tps, lat) observation, res selected by the session's
// resource kind.
func (s *Session) measure(it *Iteration, theta, native []float64) {
	t := time.Now()
	m := s.ev.Measure(native)
	it.Replay = time.Since(t)
	it.Measurement = m
	it.Observation = bo.Observation{Theta: theta, Res: m.Resource(s.ev.Resource()), Tps: m.TPS, Lat: m.LatencyP99Ms}
}

// record appends an iteration to the result and the history, moves the
// incumbent by History.BestFeasible's rule, and enters the observation at
// full forgetting weight — it is the freshest evidence of the (possibly
// just-translated) current regime.
func (s *Session) record(it Iteration) {
	v := &s.view
	s.res.Iterations = append(s.res.Iterations, it)
	v.Iterations = s.res.Iterations
	o := it.Observation
	v.History = append(v.History, o)
	if v.SLA.Feasible(o) && o.Res < v.Best.Res {
		v.Best, v.HasBest = o, true
	}
	if v.Weights != nil {
		v.Weights = append(v.Weights, 1)
	}
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
