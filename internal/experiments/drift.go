package experiments

import (
	"fmt"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/workload"
)

func init() {
	register("drift", "Simulated-day drift: SLA violations and adaptation speed, drift-aware vs stationary tuning", runDrift)
}

// DayStats summarizes one tuning session driven across a time-compressed
// simulated day: how often the load-scaled SLA was violated after warm-up,
// how many regime changes the drift detector fired on, and how quickly the
// tuner re-converged to a feasible configuration after each one.
type DayStats struct {
	// Profile is the timeline profile name ("diurnal", "spike", ...).
	Profile string
	// Method is the session's method name.
	Method string
	// Violations counts post-warmup iterations whose measurement violated
	// the load-scaled SLA — the quantity the drift gate compares between
	// the aware and stationary tuners.
	Violations int
	// DriftEvents is how many drift events fired over the day (always 0 for
	// a stationary tuner).
	DriftEvents int
	// AdaptMax and AdaptMean are the worst-case and average number of
	// iterations from a drift event to the next feasible measurement — the
	// adaptation-speed metric (0 when no event fired).
	AdaptMax  int
	AdaptMean float64
	// Improvement is the best-feasible resource improvement vs the default
	// configuration, in percent.
	Improvement float64
}

// driftTimelineCorpus builds the signature-space meta-learning corpus for
// drift runs: one LHS-sampled base task per Twitter case-study variant, with
// the variant workload's runtime signature as its meta-feature. The drift
// detector streams that same signature embedding, so when a regime change
// re-activates the corpus the shortlist query and the task meta-features live
// in one comparable space — the characterizer's query-log embedding cannot be
// recomputed online, the signature can.
func driftTimelineCorpus(p Params) *meta.Corpus {
	space := knobs.CaseStudySpace()
	n := p.RepoIters
	if n < 10 {
		n = 10
	}
	tasks := make([]meta.CorpusTask, 0, 5)
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		seed := p.Seed + int64(77*i)
		sig := w.Signature()
		tasks = append(tasks, meta.CorpusTask{
			ID:          w.Name,
			MetaFeature: sig,
			Fit: func() (*meta.BaseLearner, error) {
				sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
				var h bo.History
				for _, u := range core.LHSInit(n, space.Dim(), seed) {
					theta := space.Quantize(u)
					m := sim.Eval(space, space.Denormalize(theta))
					h = append(h, bo.Observation{
						Theta: theta, Res: m.CPUUtilPct, Tps: m.TPS, Lat: m.LatencyP99Ms,
					})
				}
				return meta.NewBaseLearnerSparse(w.Name, w.Name, "A", sig, h, space.Dim(), seed, gp.SparseConfig{})
			},
		})
	}
	return meta.NewCorpus(tasks, meta.CorpusOptions{Recorder: p.Recorder})
}

// SimulatedDay runs one tuning session over the timeline tl compressed into
// p.Iters measurements (the whole 24h day is traversed exactly once per
// session) and summarizes it; name labels the timeline in the returned
// stats. drift selects the arm: nil runs the stationary tuner,
// &core.DriftConfig{} the drift-aware one with its graduated defaults, and
// an explicit configuration an ablation such as the ResetThreshold ==
// Threshold hard-reset mode. Every arm shares the evaluator construction,
// the meta-learning corpus and the load-scaled SLA judgment; the only
// difference is Config.Drift, so a comparison isolates the drift detector
// and trust region. simulatedDayResult exposes the raw session result for
// tests.
func SimulatedDay(name string, tl *workload.Timeline, p Params, drift *core.DriftConfig) (*DayStats, error) {
	res, cfg, err := simulatedDayResult(name, tl, p, drift)
	if err != nil {
		return nil, err
	}
	st := dayStatsFrom(res, cfg.InitIters)
	st.Profile = name
	if drift != nil {
		st.Method = "ResTune-drift"
	} else {
		st.Method = "ResTune-stationary"
	}
	return st, nil
}

func simulatedDayResult(name string, tl *workload.Timeline, p Params, drift *core.DriftConfig) (*core.Result, core.Config, error) {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, p.Seed, dbsim.WithHalfRAMBufferPool())
	space := knobs.CaseStudySpace()
	ev := core.NewTimelineEvaluator(sim, space, dbsim.CPUPct, w, tl, p.Iters)

	cfg := core.DefaultConfig(p.Seed)
	cfg.Acq = p.Acq
	cfg.Recorder = p.Recorder
	cfg.Corpus = driftTimelineCorpus(p)
	cfg.TargetMetaFeature = w.Signature()
	cfg.Drift = drift
	// The method name is left at its default for EVERY arm on purpose: the
	// session derives its RNG stream from the name, so distinct names would
	// unpair the runs and turn the comparison into a seed lottery. With
	// identical names the arms share every random draw and differ only in
	// Config.Drift — the quantity under test.
	res, err := core.New(cfg).Run(ev, p.Iters)
	if err != nil {
		return nil, core.Config{}, err
	}
	return res, cfg, nil
}

// dayStatsFrom derives the day's summary from a finished session. warmup is
// the initialization budget: violations during the initial design are the
// price every method pays to learn the space, so the count starts after it.
func dayStatsFrom(res *core.Result, warmup int) *DayStats {
	st := &DayStats{Method: res.Method, Improvement: res.ImprovementPct()}
	var adaptSum int
	for i, it := range res.Iterations {
		if it.Index > warmup && !it.Feasible {
			st.Violations++
		}
		if !it.DriftEvent {
			continue
		}
		st.DriftEvents++
		// Adaptation speed: iterations from the event until the tuner is
		// back inside the SLA. If the day ends first, the remaining span
		// counts — an unconverged event is the worst case, not a free pass.
		adapt := len(res.Iterations) - i
		for j := i + 1; j < len(res.Iterations); j++ {
			if res.Iterations[j].Feasible {
				adapt = j - i
				break
			}
		}
		adaptSum += adapt
		if adapt > st.AdaptMax {
			st.AdaptMax = adapt
		}
	}
	if st.DriftEvents > 0 {
		st.AdaptMean = float64(adaptSum) / float64(st.DriftEvents)
	}
	return st
}

// runDrift is the fig-style simulated-day experiment: every timeline profile
// crossed with {drift-aware, stationary}, reporting SLA violations,
// drift-event counts and adaptation speed. The flat profile is the control —
// a correct detector fires zero events on it.
func runDrift(p Params) (*Report, error) {
	r := newReport("drift", Title("drift"))
	r.Addf("Simulated 24h day compressed into %d measurements (Twitter, 3 knobs, instance A):", p.Iters)
	r.Addf("%-10s %-20s %12s %12s %10s %10s %10s", "Timeline", "Method", "Violations", "DriftEvents", "AdaptMax", "AdaptMean", "Improve%")
	for _, profile := range []string{"diurnal", "spike", "ramp", "flat"} {
		tl, err := workload.TimelineProfile(profile)
		if err != nil {
			return nil, err
		}
		for _, drift := range []*core.DriftConfig{{}, nil} {
			st, err := SimulatedDay(profile, tl, p, drift)
			if err != nil {
				return nil, err
			}
			r.Addf("%-10s %-20s %12d %12d %10d %10.1f %10.1f",
				st.Profile, st.Method, st.Violations, st.DriftEvents, st.AdaptMax, st.AdaptMean, st.Improvement)
			r.AddSeries(fmt.Sprintf("drift/%s/%s", profile, st.Method), []float64{
				float64(st.Violations), float64(st.DriftEvents), float64(st.AdaptMax), st.AdaptMean, st.Improvement,
			})
			if profile == "flat" && st.DriftEvents != 0 {
				return nil, fmt.Errorf("drift: flat control timeline fired %d drift events (want 0)", st.DriftEvents)
			}
		}
	}
	r.Addf("")
	r.Addf("Expected shape: the drift-aware tuner violates the load-scaled SLA on")
	r.Addf("strictly fewer post-warmup iterations than the stationary tuner on the")
	r.Addf("diurnal day, re-converges within a bounded number of iterations after each")
	r.Addf("regime change, and fires zero events on the flat control.")
	return r, nil
}
