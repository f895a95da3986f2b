package core

import (
	"math"
	"time"

	"repro/internal/bo"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DriftingEvaluator is an Evaluator driven by a time-varying workload: it
// exposes the regime it observed at its most recent Measure call — the load
// multiplier relative to the timeline's unit load, and a meta-feature-style
// signature of the effective workload (workload.Workload.Signature). A
// session judges throughput-SLA feasibility against the load-scaled
// threshold, and, when Config.Drift is set, streams the signature through
// the drift detector.
type DriftingEvaluator interface {
	Evaluator
	// CurrentLoad returns the rate multiplier in effect at the most recent
	// Measure call (1 before any measurement).
	CurrentLoad() float64
	// CurrentMetaFeature returns the effective workload's signature at the
	// most recent Measure call.
	CurrentMetaFeature() []float64
}

// DriftConfig enables drift detection and the graduated,
// magnitude-proportional response (OnlineTune's contextual-and-safe
// recipe). Like that recipe, the detector and trust-region factors ship as
// one fixed set (the drift* constants below); the one thing a caller picks
// is where a translation escalates to a reset.
//
// The response has two tiers. A small smoothed-distance excursion
// (driftThreshold < dist <= ResetThreshold) fires a tier-1 *translation*:
// the regime anchor shifts to the smoothed signature, the incumbent is kept
// but aged (its best-feasible record is inflated by driftAgeBoost so fresher
// configurations can displace it), and the session decays its GP
// observation weights by driftForget — exponential forgetting implemented
// as noise inflation, so stale observations fade toward the prior instead
// of being dropped. A large jump (dist > ResetThreshold) fires the tier-2
// full reset: incumbent dropped, trust region re-centered on the DBA
// default, meta-learning corpus re-activated against the new signature.
type DriftConfig struct {
	// ResetThreshold is the smoothed distance above which a drift event
	// escalates to the tier-2 full reset; events at or below it translate
	// instead. Zero selects 3x the detection threshold (0.12). Setting it
	// to the detection threshold itself (0.04) makes every event a reset —
	// the hard-reset reference arm the graduated response is compared with.
	ResetThreshold float64
}

// The drift recipe's fixed settings.
const (
	// driftThreshold is the meta-feature distance between the smoothed
	// workload signature and the current regime anchor above which drift is
	// suspected.
	driftThreshold float64 = 0.04
	// driftHysteresis is how many consecutive suspicious iterations are
	// required before a drift event fires — one noisy measurement never
	// retriggers meta-learning.
	driftHysteresis = 2
	// driftEWMAAlpha smooths the streaming signature before it is compared
	// to the anchor (weight of the newest observation).
	driftEWMAAlpha = 0.5
	// driftForget is the multiplicative decay applied to every existing GP
	// observation weight on a tier-1 event (after k translations an
	// observation of that age carries weight driftForget^k), floored at
	// driftWeightFloor so noise inflation stays finite.
	driftForget      = 0.7
	driftWeightFloor = 0.05
	// driftAgeBoost is the relative inflation of the incumbent's
	// best-feasible resource record on a tier-1 event, so the translated
	// regime can replace a stale incumbent without the tier-2 reset's
	// evidence loss.
	driftAgeBoost = 0.1
	// driftInitRadius is the trust region's half-width (L∞, normalized knob
	// space) when it activates and after a drift event re-opens it;
	// driftMinRadius and driftMaxRadius bound it.
	driftInitRadius = 0.25
	driftMinRadius  = 0.18
	driftMaxRadius  = 0.5
	// driftShrink scales the radius down after an SLA violation,
	// driftExpand up after a feasible iteration. The region never expands
	// on an iteration that violated the SLA — including drift-event resets.
	driftShrink = 0.6
	driftExpand = 1.25
)

// driftState is a session's drift response — the online drift detector,
// the trust region, exponential forgetting and their instruments — and the
// only code that knows the recipe: the session asks it for the iteration's
// region before the policy runs and hands it each outcome after replay.
type driftState struct {
	// resetThreshold splits tier-1 from tier-2 events. warmup is the
	// iteration index after which candidates are clamped to the trust
	// region — the session's InitIters: the initial design must still
	// cover the space for the surrogate to learn it.
	resetThreshold float64
	warmup         int

	// anchor is the signature of the current regime (re-anchored on every
	// drift event); smooth is the EWMA of the streaming signature.
	anchor []float64
	smooth []float64
	over   int

	// center is the best known-safe configuration of the current regime
	// (normalized); bestRes is its resource value; radius is the trust
	// region's current half-width. def is the DBA default, the fallback
	// center after a regime change.
	center  []float64
	bestRes float64
	radius  float64
	def     []float64

	events, translations, resets obs.Counter
	radiusGauge, weightGauge     obs.Gauge
}

// newDriftState builds the drift response of a session whose default probe
// measured defaultTheta under the workload signature sig (nil when the
// evaluator reports none: the detector then anchors on the first observed
// one). sig is copied — it may alias an evaluator buffer that is valid only
// until the next Measure — and the instruments register on rec.
func newDriftState(cfg DriftConfig, warmup int, defaultTheta, sig []float64, rec obs.Recorder) *driftState {
	reset := cfg.ResetThreshold
	if reset == 0 {
		reset = 3 * driftThreshold
	}
	d := &driftState{
		resetThreshold: reset,
		warmup:         warmup,
		anchor:         append([]float64(nil), sig...),
		smooth:         append([]float64(nil), sig...),
		center:         append([]float64(nil), defaultTheta...),
		bestRes:        math.Inf(1),
		radius:         driftInitRadius,
		def:            append([]float64(nil), defaultTheta...),
		events:         rec.Counter("core.drift_events"),
		translations:   rec.Counter("core.drift_translations"),
		resets:         rec.Counter("core.drift_resets"),
		radiusGauge:    rec.Gauge("core.trust_radius"),
		weightGauge:    rec.Gauge("core.oldest_obs_weight"),
	}
	d.radiusGauge.Set(d.radius)
	return d
}

// Drift-response tiers: how hard observe reacted to a fired event.
const (
	// DriftNone: no event this iteration.
	DriftNone = 0
	// DriftTranslate is the tier-1 graduated response to a small
	// smoothed-distance excursion: re-anchor the detector, age the
	// incumbent, decay GP observation weights — no reset.
	DriftTranslate = 1
	// DriftReset is the tier-2 full reset for a large jump: incumbent
	// dropped, trust region re-centered on the DBA default, corpus
	// re-activated.
	DriftReset = 2
)

// warm reports whether iteration iter is still inside the warm-up window:
// the radius is frozen and no region clamps the candidate. observe and
// region both read this one boundary, so the iteration whose outcome first
// moves the radius (warmup+1) is also the first one region clamps.
func (d *driftState) warm(iter int) bool { return iter <= d.warmup }

// region returns iteration iter's trust region as acquisition bounds — every
// candidate, probes, incumbents and local refinements alike, is confined to
// the box of half-width radius around the best known-safe configuration —
// and records its radius and center on it. It returns nil during warm-up,
// when the initial design still covers the whole space.
func (d *driftState) region(iter int, it *Iteration) *bo.Box {
	if d.warm(iter) {
		return nil
	}
	it.TrustRadius = d.radius
	it.TrustCenter = append([]float64(nil), d.center...)
	lo := make([]float64, len(d.center))
	hi := make([]float64, len(d.center))
	for i, c := range d.center {
		lo[i] = max(0, c-d.radius)
		hi[i] = min(1, c+d.radius)
	}
	return &bo.Box{Lo: lo, Hi: hi}
}

// respond processes iteration iter's outcome — the evaluated theta, its
// feasibility and resource in it, the workload signature sig after replay —
// and applies the graduated response to the session's view. observe moves
// the trust region and runs the detector; a tier-1 translation then decays
// the GP observation weights (the surrogate forgets the old regime
// gradually), and a tier-2 reset hands the policy the new regime's
// signature as the target meta-feature (ResTune's re-triggers
// meta-learning on it).
func (d *driftState) respond(iter int, it *Iteration, theta, sig []float64, v *View) {
	it.DriftDistance, it.DriftTier = d.observe(iter, theta, it.Feasible, it.Observation.Res, sig)
	it.DriftEvent = it.DriftTier != DriftNone
	switch it.DriftTier {
	case DriftTranslate:
		d.events.Add(1)
		d.translations.Add(1)
		d.forget(v)
	case DriftReset:
		d.events.Add(1)
		d.resets.Add(1)
		v.MetaFeature = append([]float64(nil), d.anchor...)
		v.Resets++
	}
	d.radiusGauge.Set(d.radius)
}

// forget applies one tier-1 forgetting step: every existing observation's
// GP weight decays by driftForget (floored at driftWeightFloor so noise
// inflation stays finite). The weight track is created at the first
// translation with the history's capacity, so the session's appends never
// move it; until then it is nil and the GP fit path is bit-identical to the
// pre-forgetting tuner.
func (d *driftState) forget(v *View) {
	if v.Weights == nil {
		v.Weights = make([]float64, len(v.History), cap(v.History))
		for i := range v.Weights {
			v.Weights[i] = 1
		}
	}
	for i, w := range v.Weights {
		v.Weights[i] = max(driftWeightFloor, w*driftForget)
	}
	d.weightGauge.Set(v.Weights[0])
}

// appendAttrs appends the drift span attributes of iteration it, whose
// outcome respond has processed, to attrs: the detector's distance and
// event, once the region is active the radius this iteration's candidate
// was clamped to (it.TrustRadius; the core.trust_radius gauge carries the
// latest radius) and, once forgetting has started, the oldest observation's
// weight — driftForget^k after k translations, how much of the original
// regime's evidence the surrogate still credits.
func (d *driftState) appendAttrs(attrs []obs.Attr, it *Iteration, weights []float64) []obs.Attr {
	attrs = append(attrs,
		obs.Float("drift_dist", it.DriftDistance),
		obs.Bool("drift_event", it.DriftEvent),
		obs.Int("drift_tier", it.DriftTier))
	if it.TrustRadius > 0 {
		attrs = append(attrs, obs.Float("trust_radius", it.TrustRadius))
	}
	if weights != nil {
		attrs = append(attrs, obs.Float("oldest_obs_weight", weights[0]))
	}
	return attrs
}

// observe processes iteration iter's outcome: the trust-region update
// (recentre on the best safe configuration seen this regime, expand on a
// safe success, shrink on an SLA violation) and the drift detector update
// over the workload signature. It returns the smoothed distance to the
// regime anchor and the tier of the drift event that fired (DriftNone when
// none did).
//
// Centering on the best — not the latest — known-safe configuration matters:
// the latest feasible point is often borderline (the SLA thresholds come
// from the default probe, so its neighborhood flips feasibility under
// measurement noise), while the best feasible point sits deep inside the
// feasible region, so a box around it keeps exploration safe without
// trapping the tuner at the boundary.
//
// The drift response is graduated by the smoothed distance at the moment
// the hysteresis count is satisfied. A small excursion (at or below
// ResetThreshold) is tier-1: the regime moved, but continuously — the
// detector re-anchors so the translation is absorbed, the incumbent stays
// the center but its record is aged by driftAgeBoost (organic growth makes an
// old optimum slowly stale, not suddenly unsafe), and respond decays
// the GP observation weights so the surrogate forgets the old regime
// gradually. A large jump (above ResetThreshold) is tier-2, the full
// reset: the best-feasible record is invalidated and the center falls
// back to the DBA default, because the old regime's optimum is no
// evidence of safety under the new one (a config that merely kept up with
// the quiet night can be the worst possible anchor for business hours),
// while the default is the one configuration whose SLA behaviour defined
// the thresholds in the first place.
//
// Safety invariant: the radius never grows on an iteration that violated
// the SLA. A drift event of either tier re-opens the region to at least
// driftInitRadius only when the triggering iteration was itself feasible; after
// a violating event the region stays shrunk (during warm-up, where the
// frozen radius skipped the ordinary violation shrink, the event applies
// it so the box opens shrunk there too) and re-opens through subsequent
// safe successes.
//
// While warm(iter) holds (the initial design is still running) the radius
// is frozen at driftInitRadius: those iterations explore the full space by
// design, so growing or shrinking the region on their outcomes would only
// randomize the half-width the region opens with. Recentering and drift
// detection still run — the warm-up's best feasible point is the natural
// first center.
func (d *driftState) observe(iter int, theta []float64, feasible bool, res float64, sig []float64) (dist float64, tier int) {
	warm := d.warm(iter)
	if feasible {
		if res <= d.bestRes {
			d.bestRes = res
			d.center = append(d.center[:0], theta...)
		}
		if !warm {
			d.radius = min(driftMaxRadius, d.radius*driftExpand)
		}
	} else if !warm {
		d.radius = max(driftMinRadius, d.radius*driftShrink)
	}

	if len(sig) == 0 {
		return 0, DriftNone
	}
	if d.anchor == nil {
		d.anchor = append([]float64(nil), sig...)
		d.smooth = append([]float64(nil), sig...)
		return 0, DriftNone
	}
	for i := range d.smooth {
		d.smooth[i] = (1-driftEWMAAlpha)*d.smooth[i] + driftEWMAAlpha*sig[i]
	}
	dist = workload.MetaFeatureDistance(d.smooth, d.anchor)
	if dist > driftThreshold {
		d.over++
	} else {
		d.over = 0
	}
	if d.over >= driftHysteresis {
		d.over = 0
		d.anchor = append(d.anchor[:0], d.smooth...)
		if dist > d.resetThreshold {
			tier = DriftReset
			d.bestRes = math.Inf(1)
			d.center = append(d.center[:0], d.def...)
		} else {
			tier = DriftTranslate
			if !math.IsInf(d.bestRes, 1) {
				d.bestRes += math.Abs(d.bestRes) * driftAgeBoost
			}
		}
		switch {
		case feasible && d.radius < driftInitRadius:
			// Regime change on a safe iteration: re-open exploration so
			// the tuner can follow the moved optimum.
			d.radius = driftInitRadius
		case !feasible && warm:
			// Warm-up froze the radius, skipping the ordinary violation
			// shrink above; apply it here so a violating event leaves the
			// region shrunk exactly as it would post-warm-up, and the box
			// the event opens with honours the safety invariant.
			d.radius = max(driftMinRadius, d.radius*driftShrink)
		}
	}
	return dist, tier
}

// TimelineEvaluator drives a simulator through a workload.Timeline with
// time-compressed playback: each Measure call advances the simulated clock
// by one step (Total/StepsPerDay) and evaluates under the load of that
// instant, so a whole 24h day plays out over a session's iteration budget.
// It implements DriftingEvaluator: the load multiplier and the effective
// workload's signature at the latest step are observable, which is what the
// session's SLA scaling and drift detector consume.
type TimelineEvaluator struct {
	inner *SimEvaluator
	w     workload.Workload
	tl    *workload.Timeline
	step  time.Duration

	n   int
	lp  workload.LoadPoint
	sig []float64
}

// NewTimelineEvaluator builds a timeline evaluator over a simulator for the
// given workload. stepsPerDay maps the session's measurement sequence onto
// the timeline: step k evaluates at simulated time k*Total/stepsPerDay
// (wrapping past a day).
func NewTimelineEvaluator(sim *dbsim.Simulator, space *knobs.Space, kind dbsim.ResourceKind,
	w workload.Workload, tl *workload.Timeline, stepsPerDay int) *TimelineEvaluator {
	if stepsPerDay <= 0 {
		stepsPerDay = 96 // 15-minute steps over a 24h day
	}
	return &TimelineEvaluator{
		inner: NewSimEvaluator(sim, space, kind),
		w:     w,
		tl:    tl,
		step:  tl.Total() / time.Duration(stepsPerDay),
		lp:    workload.LoadPoint{RateMult: 1},
		sig:   w.Signature(),
	}
}

// Space implements Evaluator.
func (e *TimelineEvaluator) Space() *knobs.Space { return e.inner.Space() }

// DefaultNative implements Evaluator.
func (e *TimelineEvaluator) DefaultNative() []float64 { return e.inner.DefaultNative() }

// Resource implements Evaluator.
func (e *TimelineEvaluator) Resource() dbsim.ResourceKind { return e.inner.Resource() }

// Measure implements Evaluator: it advances the simulated clock one step
// and evaluates the configuration under that instant's load. The signature
// is that of the workload whose profile is scaled to the load point
// (dbsim.WorkloadProfile.AtLoad), recomputed into a reused buffer with no
// per-iteration allocation.
func (e *TimelineEvaluator) Measure(native []float64) dbsim.Measurement {
	t := e.step * time.Duration(e.n)
	e.n++
	e.lp = e.tl.At(t)
	w := e.w
	w.Profile = w.Profile.AtLoad(e.lp.RateMult, e.lp.WriteBoost)
	e.sig = w.AppendSignature(e.sig[:0])
	return e.inner.Sim.EvalAtLoad(e.inner.Knobs, native, e.lp.RateMult, e.lp.WriteBoost)
}

// CurrentLoad implements DriftingEvaluator.
func (e *TimelineEvaluator) CurrentLoad() float64 { return e.lp.RateMult }

// CurrentMetaFeature implements DriftingEvaluator. The returned slice
// aliases the evaluator's internal buffer and is valid only until the next
// Measure call; callers that retain it across measurements must copy
// (newDriftState does, the single retaining call site).
func (e *TimelineEvaluator) CurrentMetaFeature() []float64 { return e.sig }
