package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/obs"
	"repro/internal/workload"
)

// timelineEvaluator builds the canonical drift-test evaluator: the Twitter
// workload driven through a named timeline profile, compressed into steps
// measurements.
func timelineEvaluator(t *testing.T, profile string, seed int64, steps int) *TimelineEvaluator {
	t.Helper()
	tl, err := workload.TimelineProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return NewTimelineEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct, w, tl, steps)
}

// driftConfig is the drift sessions' shared test configuration.
func driftConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.InitIters = 5
	cfg.Acq = fastAcq()
	cfg.Drift = &DriftConfig{}
	return cfg
}

// driftTrace extends sessionTrace with every drift-layer output: detector
// distances, events, trust-region radii and centers, all at full float
// precision — the canonical trace the bit-identity test compares.
func driftTrace(res *Result) string {
	s := sessionTrace(res)
	for _, it := range res.Iterations {
		s += fmt.Sprintf("%d drift dist=%x event=%v tier=%d r=%x c=%x load=%x feas=%v\n",
			it.Index, it.DriftDistance, it.DriftEvent, it.DriftTier, it.TrustRadius, it.TrustCenter,
			it.LoadMult, it.Feasible)
	}
	return s
}

// TestDriftSessionBitIdenticalAcrossGOMAXPROCS pins the deterministic-fan-out
// contract for the drift-aware tuner: a session driven through a diurnal
// timeline — drift detector, trust-region clamping, load-normalized SLA —
// must produce a bit-identical canonical trace (thetas, measurements, drift
// distances, events, radii, centers) at GOMAXPROCS=1 and oversubscribed, and
// across repeated runs. A live recorder is attached so write-only telemetry
// stays trace-invisible on this path too.
func TestDriftSessionBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	const iters = 18
	run := func(procs int) string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := driftConfig(7)
		rec := obs.NewJSONL(io.Discard)
		cfg.Recorder = rec
		res, err := New(cfg).Run(timelineEvaluator(t, "diurnal", 7, iters), iters)
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("telemetry sink: %v", err)
		}
		return driftTrace(res)
	}

	serial := run(1)
	if again := run(1); again != serial {
		t.Fatalf("drift session not deterministic at GOMAXPROCS=1:\n%s\nvs\n%s", serial, again)
	}
	procs := runtime.NumCPU()
	if procs < 8 {
		procs = 8 // oversubscribe so goroutines genuinely interleave
	}
	if parallel := run(procs); parallel != serial {
		t.Fatalf("drift trace differs between GOMAXPROCS=1 and %d:\n%s\nvs\n%s",
			procs, serial, parallel)
	}
}

// TestTrustRegionSafetyProperties is the trust region's property suite,
// table-driven over every timeline profile (the single-phase flat timeline is
// the no-drift control). For each session it asserts:
//
//  1. every post-warmup evaluated configuration lies inside the trust region
//     recorded for its iteration ([center±radius] clamped to [0,1]);
//  2. the region never expands on an SLA-violating iteration — after a
//     violation the next iteration's radius is no larger, including across
//     drift-event resets;
//  3. the flat control fires zero drift events.
func TestTrustRegionSafetyProperties(t *testing.T) {
	const iters = 24
	for _, tc := range []struct {
		profile   string
		wantDrift bool
	}{
		{"diurnal", true},
		{"spike", true},
		{"ramp", true},
		{"flat", false},
	} {
		t.Run(tc.profile, func(t *testing.T) {
			cfg := driftConfig(3)
			res, err := New(cfg).Run(timelineEvaluator(t, tc.profile, 3, iters), iters)
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			var prev *Iteration
			for i := range res.Iterations {
				it := &res.Iterations[i]
				if it.DriftEvent {
					events++
				}
				if it.Index <= cfg.InitIters {
					if it.TrustRadius != 0 {
						t.Errorf("iter %d: trust region active during warmup (r=%g)", it.Index, it.TrustRadius)
					}
					continue
				}
				if it.TrustRadius <= 0 || len(it.TrustCenter) == 0 {
					t.Fatalf("iter %d: no trust region recorded post-warmup", it.Index)
				}
				for d, v := range it.Observation.Theta {
					lo := max(0, it.TrustCenter[d]-it.TrustRadius)
					hi := min(1, it.TrustCenter[d]+it.TrustRadius)
					if v < lo-1e-12 || v > hi+1e-12 {
						t.Errorf("iter %d dim %d: theta %g outside trust region [%g, %g]",
							it.Index, d, v, lo, hi)
					}
				}
				if prev != nil && !prev.Feasible && it.TrustRadius > prev.TrustRadius+1e-12 {
					t.Errorf("iter %d: region expanded to %g after SLA violation at iter %d (r=%g)",
						it.Index, it.TrustRadius, prev.Index, prev.TrustRadius)
				}
				prev = it
			}
			if tc.wantDrift && events == 0 {
				t.Errorf("%s timeline fired no drift events", tc.profile)
			}
			if !tc.wantDrift && events != 0 {
				t.Errorf("flat control fired %d drift events, want 0", events)
			}
		})
	}
}

// firstPostWarmupEvent returns the index of the first drift event fired
// after warm-up (so the surrounding iterations carry a recorded trust
// region), or -1.
func firstPostWarmupEvent(res *Result, warmup int) int {
	for i, it := range res.Iterations {
		if it.DriftEvent && it.Index > warmup && i+1 < len(res.Iterations) {
			return i
		}
	}
	return -1
}

// TestDriftEventTierResponses asserts the graduated regime-change contract
// on the session's result, one subtest per tier.
//
// Tier 2 (forced by ResetThreshold == driftThreshold, the hard-reset
// configuration): a drift event invalidates the previous regime's
// best-feasible record — the trust center recorded for the next iteration
// is the DBA default, not the old regime's optimum.
//
// Tier 1 (the graduated default, under which the spike day's excursions
// stay below the reset threshold): the event keeps the incumbent — the
// next iteration's trust center is NOT yanked to the DBA default; it is
// the center already in effect at the event, or the event iteration's own
// configuration if that recentered the region.
func TestDriftEventTierResponses(t *testing.T) {
	const iters = 24

	t.Run("tier2-resets-to-default", func(t *testing.T) {
		cfg := driftConfig(5)
		cfg.Drift = &DriftConfig{ResetThreshold: driftThreshold} // every event resets
		ev := timelineEvaluator(t, "spike", 5, iters)
		def := ev.Space().Normalize(ev.DefaultNative())
		res, err := New(cfg).Run(ev, iters)
		if err != nil {
			t.Fatal(err)
		}
		fired := firstPostWarmupEvent(res, cfg.InitIters)
		if fired < 0 {
			t.Fatal("spike timeline fired no post-warmup drift event with a following iteration")
		}
		event := res.Iterations[fired]
		if event.DriftTier != DriftReset {
			t.Fatalf("event at iter %d classified tier %d, want DriftReset under ResetThreshold==driftThreshold",
				event.Index, event.DriftTier)
		}
		next := res.Iterations[fired+1]
		if len(next.TrustCenter) == 0 {
			t.Fatal("no trust center recorded after the drift event")
		}
		for d := range def {
			if next.TrustCenter[d] != def[d] {
				t.Fatalf("post-reset trust center %v is not the DBA default %v", next.TrustCenter, def)
			}
		}
	})

	t.Run("tier1-keeps-incumbent", func(t *testing.T) {
		cfg := driftConfig(5)
		ev := timelineEvaluator(t, "spike", 5, iters)
		def := ev.Space().Normalize(ev.DefaultNative())
		res, err := New(cfg).Run(ev, iters)
		if err != nil {
			t.Fatal(err)
		}
		fired := firstPostWarmupEvent(res, cfg.InitIters)
		if fired < 0 {
			t.Fatal("spike timeline fired no post-warmup drift event with a following iteration")
		}
		event := res.Iterations[fired]
		if event.DriftTier != DriftTranslate {
			t.Fatalf("event at iter %d classified tier %d, want DriftTranslate at graduated defaults",
				event.Index, event.DriftTier)
		}
		next := res.Iterations[fired+1]
		if len(next.TrustCenter) == 0 {
			t.Fatal("no trust center recorded after the drift event")
		}
		same := func(a, b []float64) bool {
			for d := range a {
				if a[d] != b[d] {
					return false
				}
			}
			return true
		}
		if !same(next.TrustCenter, event.TrustCenter) && !same(next.TrustCenter, event.Observation.Theta) {
			t.Fatalf("post-translation trust center %v is neither the incumbent %v nor the event's config %v",
				next.TrustCenter, event.TrustCenter, event.Observation.Theta)
		}
		if same(next.TrustCenter, def) && !same(event.TrustCenter, def) {
			t.Fatalf("tier-1 event re-centered on the DBA default — that is the tier-2 response")
		}
	})
}

// TestDriftWarmupGateUnification is the satellite regression test for the
// warm-up/trust-region gate interaction, at the driftState level where the
// boundary can be driven exactly. It pins:
//
//  1. region returns a box exactly when warm does not hold, with the
//     boundary at iter == warmup (the last frozen iteration) / warmup+1
//     (the first clamped one);
//  2. a drift event on the LAST warm-up iteration honours the safety
//     invariant both ways: a feasible event leaves the region at
//     driftInitRadius, while a violating event leaves it shrunk — the frozen
//     radius must not smuggle an unshrunk box past the violation.
func TestDriftWarmupGateUnification(t *testing.T) {
	def := []float64{0.5, 0.5}
	near := []float64{0, 0, 0, 0}
	far := []float64{1, 1, 1, 1}

	// drive feeds observations so that the hysteresis count (2) is
	// satisfied exactly on iteration warmup, with the event iteration's
	// feasibility chosen by the caller, and returns the state plus the
	// event's tier.
	const warmup = 5
	drive := func(t *testing.T, eventFeasible bool) (*driftState, int) {
		t.Helper()
		d := newDriftState(DriftConfig{}, warmup, def, nil, obs.Nop)
		for iter := 1; iter <= warmup-driftHysteresis; iter++ {
			if _, tier := d.observe(iter, def, true, 50, near); tier != DriftNone {
				t.Fatalf("iter %d fired prematurely", iter)
			}
		}
		if _, tier := d.observe(warmup-1, def, true, 50, far); tier != DriftNone {
			t.Fatal("event fired one iteration early")
		}
		dist, tier := d.observe(warmup, def, eventFeasible, 500, far)
		if tier == DriftNone {
			t.Fatalf("no drift event on the last warm-up iteration (dist=%g)", dist)
		}
		return d, tier
	}

	t.Run("gates-are-complements", func(t *testing.T) {
		d := newDriftState(DriftConfig{}, warmup, def, nil, obs.Nop)
		for iter := 0; iter <= 2*warmup; iter++ {
			var it Iteration
			if box := d.region(iter, &it); d.warm(iter) == (box != nil) {
				t.Fatalf("iter %d: warm=%v but region returned %v", iter, d.warm(iter), box)
			}
		}
		if !d.warm(warmup) {
			t.Fatal("the last warm-up iteration must still be frozen")
		}
		var it Iteration
		if d.region(warmup+1, &it) == nil || it.TrustRadius != driftInitRadius {
			t.Fatal("the first post-warm-up iteration must be clamped and record its radius")
		}
	})

	t.Run("feasible-warmup-event-keeps-init-radius", func(t *testing.T) {
		d, _ := drive(t, true)
		if d.radius != driftInitRadius {
			t.Fatalf("radius %g after feasible warm-up event, want driftInitRadius %g", d.radius, driftInitRadius)
		}
	})

	t.Run("violating-warmup-event-shrinks", func(t *testing.T) {
		d, _ := drive(t, false)
		want := max(driftMinRadius, driftInitRadius*driftShrink)
		if d.radius != want {
			t.Fatalf("radius %g after violating warm-up event, want shrunk %g (frozen warm-up radius must not skip the violation shrink)",
				d.radius, want)
		}
	})
}

// TestDriftTelemetryMatchesIterations pins the drift response's telemetry
// to the session's result, for the graduated default (translations) and the
// hard-reset arm (resets), through a JSONL recorder:
//
//  1. every core.iteration span carries drift_dist, drift_event and
//     drift_tier equal to its own Iteration's fields and, past warm-up
//     only, trust_radius equal to its Iteration's TrustRadius;
//  2. oldest_obs_weight appears from the first translation on, equal to
//     driftForget^k (floored) after k translations;
//  3. after Flush the core.drift_* counters count the result's tiers and
//     the core.trust_radius gauge holds the latest radius (the region the
//     next iteration would get) and core.oldest_obs_weight the final weight.
func TestDriftTelemetryMatchesIterations(t *testing.T) {
	const iters = 24
	for _, tc := range []struct {
		name  string
		drift DriftConfig
		tier  int // the tier the arm must fire
	}{
		{"graduated", DriftConfig{}, DriftTranslate},
		{"hard-reset", DriftConfig{ResetThreshold: driftThreshold}, DriftReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := driftConfig(5)
			cfg.Drift = &tc.drift
			var buf bytes.Buffer
			rec := obs.NewJSONL(&buf)
			cfg.Recorder = rec
			sess, err := NewSession(cfg, timelineEvaluator(t, "spike", 5, iters), iters)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			spans := map[int]map[string]any{}
			metrics := map[string]float64{}
			for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
				var e obs.Event
				if err := json.Unmarshal(line, &e); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				switch {
				case e.Type == "span" && e.Name == "core.iteration":
					spans[int(e.Attrs["iter"].(float64))] = e.Attrs
				case e.Type == "counter" || e.Type == "gauge":
					metrics[e.Name] = e.Value
				}
			}

			tiers := map[int]int{}
			weight, active := 0.0, 0
			for _, it := range res.Iterations[1:] {
				a, ok := spans[it.Index]
				if !ok {
					t.Fatalf("iter %d: no core.iteration span", it.Index)
				}
				tiers[it.DriftTier]++
				if it.DriftTier == DriftTranslate {
					if weight == 0 {
						weight = 1 // the track starts at full weight
					}
					weight = max(driftWeightFloor, weight*driftForget)
				}
				if a["drift_dist"] != it.DriftDistance || a["drift_event"] != it.DriftEvent ||
					a["drift_tier"] != float64(it.DriftTier) {
					t.Errorf("iter %d: span drift attrs %v/%v/%v, iteration %v/%v/%v", it.Index,
						a["drift_dist"], a["drift_event"], a["drift_tier"], it.DriftDistance, it.DriftEvent, it.DriftTier)
				}
				// The span carries the radius its own candidate was clamped
				// to, and none while the region is inactive.
				radius, has := a["trust_radius"].(float64)
				if warm := it.Index <= cfg.InitIters; has == warm || has && radius != it.TrustRadius {
					t.Errorf("iter %d (warm-up %v): span trust_radius %v (present %v), iteration's region %v",
						it.Index, warm, radius, has, it.TrustRadius)
				}
				if has {
					active++
				}
				w, has := a["oldest_obs_weight"]
				if has != (tiers[DriftTranslate] > 0) || has && w != weight {
					t.Errorf("iter %d after %d translations: oldest_obs_weight %v (present %v), want %v",
						it.Index, tiers[DriftTranslate], w, has, weight)
				}
			}
			if tiers[tc.tier] == 0 {
				t.Fatalf("spike day fired no tier-%d event: the telemetry checks are vacuous", tc.tier)
			}
			if active == 0 {
				t.Fatal("no iteration ran with the trust region active: the radius checks are vacuous")
			}

			for name, want := range map[string]float64{
				"core.drift_events":       float64(tiers[DriftTranslate] + tiers[DriftReset]),
				"core.drift_translations": float64(tiers[DriftTranslate]),
				"core.drift_resets":       float64(tiers[DriftReset]),
				"core.trust_radius":       sess.drift.radius,
				"core.oldest_obs_weight":  weight,
			} {
				if got, ok := metrics[name]; !ok || got != want {
					t.Errorf("%s = %v (emitted %v), want %v", name, got, ok, want)
				}
			}
		})
	}
}

// TestTimelineEvaluatorMultiDayPlayback drives a session budget past one
// simulated day and checks the clock: the load and signature the evaluator
// reports for every step equal the timeline's load at the step's time
// wrapped modulo the timeline's Total, and the signature of the workload
// scaled to that load — the repeating day Timeline.At evaluates.
func TestTimelineEvaluatorMultiDayPlayback(t *testing.T) {
	const stepsPerDay = 8
	const steps = 20 // 2.5 simulated days
	ev := timelineEvaluator(t, "diurnal", 11, stepsPerDay)
	tl, err := workload.TimelineProfile("diurnal")
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Twitter()
	if got := ev.CurrentLoad(); got != 1 {
		t.Fatalf("before any measurement: CurrentLoad=%v, want 1", got)
	}
	native := ev.DefaultNative()
	step := tl.Total() / stepsPerDay
	for k := 0; k < steps; k++ {
		ev.Measure(native)
		wantTime := (step * time.Duration(k)) % tl.Total()
		lp := tl.At(wantTime)
		if got := ev.CurrentLoad(); got != lp.RateMult {
			t.Fatalf("step %d: CurrentLoad=%v, want timeline load %v at wrapped time %v", k, got, lp.RateMult, wantTime)
		}
		scaled := w
		scaled.Profile = w.Profile.AtLoad(lp.RateMult, lp.WriteBoost)
		if d := workload.MetaFeatureDistance(ev.CurrentMetaFeature(), scaled.Signature()); d != 0 {
			t.Fatalf("step %d: CurrentMetaFeature is %v from the signature at wrapped time %v", k, d, wantTime)
		}
	}
}
