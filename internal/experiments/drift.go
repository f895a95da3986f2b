package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

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

// Day is one timeline of the simulated-day table and the name its rows
// carry.
type Day struct {
	Name     string
	Timeline *workload.Timeline
}

// dayStats summarizes one tuning session driven across a time-compressed
// simulated day: how often the load-scaled SLA was violated after warm-up,
// how many regime changes the drift detector fired on, and how quickly the
// tuner re-converged to a feasible configuration after each one.
type dayStats struct {
	// Profile is the timeline's name ("diurnal", "spike", ...).
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
func driftTimelineCorpus(p Params) []meta.CorpusTask {
	space := knobs.CaseStudySpace()
	tasks := make([]meta.CorpusTask, 0, 5)
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		seed := p.Seed + int64(77*i)
		sig := w.Signature()
		tasks = append(tasks, meta.CorpusTask{
			ID:          w.Name,
			MetaFeature: sig,
			Fit: func() (*meta.BaseLearner, error) {
				ev := simEvaluator(w, "A", space, dbsim.CPUPct, seed, halfRAM)
				h := lhsSample(ev, max(p.RepoIters, 10), seed, false).History()
				return meta.NewBaseLearnerSparse(w.Name, w.Name, "A", sig, h, space.Dim(), seed, gp.SparseConfig{})
			},
		})
	}
	return tasks
}

// dayRow is one arm's session over the timeline tl compressed into p.Iters
// measurements (the whole timeline is traversed exactly once per session).
// drift selects the arm: nil runs the stationary tuner, &core.DriftConfig{}
// the drift-aware one with its graduated defaults, and an explicit
// configuration an ablation such as the ResetThreshold == Threshold
// hard-reset mode. Every arm shares the evaluator construction, the
// meta-learning corpus and the load-scaled SLA judgment; the only difference
// is Config.Drift, so a comparison isolates the drift detector and trust
// region.
func dayRow(tl *workload.Timeline, p Params, drift *core.DriftConfig) row {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, p.Seed, halfRAM)
	ev := core.NewTimelineEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct, w, tl, p.Iters)
	// The method name is left at its default for EVERY arm on purpose: the
	// session derives its RNG stream from the name, so distinct names would
	// unpair the runs and turn the comparison into a seed lottery. With
	// identical names the arms share every random draw and differ only in
	// Config.Drift — the quantity under test.
	cfg := p.config(p.Seed, "", driftTimelineCorpus(p), w.Signature())
	cfg.Drift = drift
	return p.once("", core.New(cfg), func(int) core.Evaluator { return ev })
}

// dayStatsFrom derives the day's summary from a finished session of the
// given arm. Violations count after the initialization budget, which every
// arm keeps at the paper's default: violations during the initial design
// are the price every method pays to learn the space.
func dayStatsFrom(name string, res *core.Result, drift *core.DriftConfig) *dayStats {
	st := &dayStats{Profile: name, Method: "ResTune-stationary", Improvement: res.ImprovementPct()}
	if drift != nil {
		st.Method = "ResTune-drift"
	}
	warmup := core.DefaultConfig(0).InitIters
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

// runDrift is the fig-style simulated-day experiment: the simulated-day
// table over every built-in timeline profile. The flat profile is the
// control — a correct detector fires zero events on it.
func runDrift(p Params) (*Report, error) {
	var days []Day
	for _, name := range workload.TimelineProfileNames() {
		tl, err := workload.TimelineProfile(name)
		if err != nil {
			return nil, err
		}
		days = append(days, Day{name, tl})
	}
	r, err := RunDays(p, days)
	if err != nil {
		return nil, err
	}
	// A row's series holds its drift-event count second.
	if n := r.Series["drift/flat/ResTune-drift"][1]; n != 0 {
		return nil, fmt.Errorf("drift: flat control timeline fired %g drift events (want 0)", n)
	}
	r.Addf("")
	r.Addf("Expected shape: the drift-aware tuner violates the load-scaled SLA on")
	r.Addf("strictly fewer post-warmup iterations than the stationary tuner on the")
	r.Addf("diurnal day, re-converges within a bounded number of iterations after each")
	r.Addf("regime change, and fires zero events on the flat control.")
	return r, nil
}

// RunDays runs the simulated-day table over days: every timeline compressed
// into p.Iters measurements and crossed with {drift-aware, stationary},
// reporting post-warmup SLA violations, drift-event counts and adaptation
// speed (restune-bench -timeline). The header names the timelines' lengths.
func RunDays(p Params, days []Day) (*Report, error) {
	var lengths []string
	for _, d := range days {
		if l := dayLength(d.Timeline.Total()); !slices.Contains(lengths, l) {
			lengths = append(lengths, l)
		}
	}
	r := newReport("drift", Title("drift"))
	r.Addf("Simulated %s day compressed into %d measurements (Twitter, 3 knobs, instance A):", strings.Join(lengths, "/"), p.Iters)
	r.Addf("%-10s %-20s %12s %12s %10s %10s %10s", "Timeline", "Method", "Violations", "DriftEvents", "AdaptMax", "AdaptMean", "Improve%")
	arms := []*core.DriftConfig{{}, nil}
	var rows []row
	for _, d := range days {
		for _, drift := range arms {
			rows = append(rows, dayRow(d.Timeline, p, drift))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}
	for i, o := range out {
		st := dayStatsFrom(days[i/len(arms)].Name, o.last, arms[i%len(arms)])
		r.Addf("%-10s %-20s %12d %12d %10d %10.1f %10.1f",
			st.Profile, st.Method, st.Violations, st.DriftEvents, st.AdaptMax, st.AdaptMean, st.Improvement)
		r.AddSeries(fmt.Sprintf("drift/%s/%s", st.Profile, st.Method), []float64{
			float64(st.Violations), float64(st.DriftEvents), float64(st.AdaptMax), st.AdaptMean, st.Improvement,
		})
	}
	return r, nil
}

// dayLength names a timeline's length in the table's header: "24h" for a
// whole number of hours, Duration's own form ("1h30m0s") otherwise.
func dayLength(d time.Duration) string {
	if h := d.Hours(); h == math.Trunc(h) {
		return fmt.Sprintf("%gh", h)
	}
	return d.String()
}
