package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	CheckErr  string  `json:"check_error,omitempty"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Units     int     `json:"units"`
	Samples   int     `json:"samples"`
	SetupReps int     `json:"setup_reps"`
	WallS     float64 `json:"wall_s"`
	TraceHash string  `json:"trace_hash"`
	// SLAViolations counts post-initialization iterations that broke the SLA;
	// SLAMetPct is the share that kept it.
	SLAViolations int                    `json:"sla_violations"`
	SLAMetPct     float64                `json:"sla_met_pct"`
	Sizes         map[string]int         `json:"sizes"`
	Metrics       map[string]metricValue `json:"metrics"`
	TraceFile     string                 `json:"trace_file,omitempty"`
	// SelfMs is a traced run's self time by span name: where the timed
	// region's time went, children not counted twice.
	SelfMs map[string]float64 `json:"self_ms_by_span,omitempty"`
}

type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	// workers is the fleet's worker count and the engine drive's client
	// count.
	workers int
	sc      scale
	// dir is where the run may write: engine files, repository round trips
	// and the trace. It is inside the checkout.
	dir string
	// traceDir is where a traced run leaves its JSONL; unlike dir it is not
	// removed when the process ends.
	traceDir string
}

// timedSetup sets the workload up several times, warm-up included, and
// reports the median: one repetition of a short set-up says little, and a
// later change that moves work into set-up must show. The first repetition,
// on the run's own seed, is the one the timed region uses; the others use
// other seeds, so that no cache the program keeps per seed shortens them.
func timedSetup(def workloadDef, opt runOptions) (*runner, float64, int, error) {
	const (
		minReps = 3
		maxReps = 50
	)
	var first *runner
	var times []float64
	start := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		seed := opt.seed + int64(rep)*1_000_003
		dir := filepath.Join(opt.dir, fmt.Sprintf("setup-%d", rep))
		t0 := time.Now()
		r, err := def.setup(seed, opt, dir)
		if err == nil {
			err = r.warm()
		}
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			if r != nil && r.close != nil {
				r.close()
			}
			if first != nil && first.close != nil {
				first.close()
			}
			return nil, 0, 0, err
		}
		if rep == 0 {
			first = r
		} else if r.close != nil {
			r.close()
		}
		if rep+1 >= minReps && time.Since(start) >= opt.sc.SetupBudget {
			break
		}
	}
	return first, median(times), len(times), nil
}

// runWorkload sets a workload up, runs whole units of it until the time
// budget is used, and scores the run. A traced run gives the workload half
// the budget and spends the rest on the layer probes.
func runWorkload(def workloadDef, opt runOptions) (runResult, error) {
	res := runResult{Workload: def.Name, Seed: opt.seed, Traced: opt.trace, Metrics: map[string]metricValue{}}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return res, fmt.Errorf("run directory: %w", err)
	}
	r, setupS, reps, err := timedSetup(def, opt)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", def.Name, err)
	}
	if r.close != nil {
		defer r.close()
	}
	res.SetupReps = reps
	res.Sizes = r.sizes

	var tr *tracer
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		tr = newTracer()
		budget /= 2
	}

	// Every end-to-end number is taken per unit and reported as the median
	// over the run's units, so that one stall (a noisy neighbour, a garbage
	// collection landing on a slow configuration) does not set the run's
	// number. For the percentiles this also means that a sweep's p90 is
	// always read off the same few configurations of the design.
	type unitCost struct{ itersPerS, p50, p90, cpuMs, allocMB float64 }
	var costs []unitCost
	var waitMs []float64
	samples := 0
	var sessions []sessionSummary
	var firstUnit []sessionSummary
	var checkErr error

	runtime.GC()
	var mem runtime.MemStats
	wlSpan := tr.workload().begin("workload")
	start := time.Now()
	cpuStart := cpuTime()
	for k := 0; ; k++ {
		runtime.ReadMemStats(&mem)
		alloc0, cpu0, t0 := mem.TotalAlloc, cpuTime(), time.Now()
		u, err := r.unit(k, tr)
		d := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&mem)
		samples += len(u.iterMs)
		waitMs = append(waitMs, u.waitMs...)
		sessions = append(sessions, u.sessions...)
		if k == 0 {
			firstUnit = u.sessions
		}
		if err != nil {
			checkErr = err
			break
		}
		done := 0
		for _, s := range u.sessions {
			done += s.attempted - s.failed
		}
		if done > 0 {
			n := float64(done)
			costs = append(costs, unitCost{
				itersPerS: n / d.Seconds(),
				p50:       quantile(u.iterMs, 0.5),
				p90:       quantile(u.iterMs, 0.9),
				cpuMs:     ms(cpu) / n,
				allocMB:   float64(mem.TotalAlloc-alloc0) / 1e6 / n,
			})
		}
		// Stop where the total lands closest to the budget: another unit
		// runs only if it is expected to end less than half a unit late.
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(2*(k+1)) > budget {
			break
		}
	}
	wall := time.Since(start)
	cpuTotal := cpuTime() - cpuStart
	wlSpan.End()
	units := len(costs)
	unitMedian := func(f func(unitCost) float64) float64 {
		vs := make([]float64, len(costs))
		for i, c := range costs {
			vs[i] = f(c)
		}
		return median(vs)
	}

	var tot sessionSummary
	var improvement []float64
	for _, s := range sessions {
		tot.attempted += s.attempted
		tot.failed += s.failed
		tot.postInit += s.postInit
		tot.violations += s.violations
		tot.modelUpdate += s.modelUpdate
		tot.recommend += s.recommend
		tot.replay += s.replay
		tot.step += s.step
		tot.driftEvents += s.driftEvents
		tot.driftResets += s.driftResets
		tot.itersToBest += s.itersToBest
		improvement = append(improvement, s.improvementPct)
	}
	res.Attempted, res.Failed = tot.attempted, tot.failed
	res.Units, res.Samples, res.WallS = units, samples, wall.Seconds()
	// The hash covers the first unit only: it always completes, whatever
	// the machine's speed, so two runs of one seed must agree on it.
	h := newTraceHash()
	for _, s := range firstUnit {
		h.add(float64(s.hash>>32), float64(s.hash&0xffffffff))
	}
	res.TraceHash = fmt.Sprintf("%016x", h.sum())
	res.Correct = checkErr == nil && units > 0
	if checkErr != nil {
		res.CheckErr = checkErr.Error()
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1 // the result line needs one attempt
	}
	completed := float64(tot.attempted - tot.failed)
	if completed < 1 {
		completed = 1
	}
	// SLA violations are reported beside the metrics, not among them: their
	// seed-to-seed spread (20 to 60 % of the median) is wider than any bound.
	slaMet := 100.0
	if tot.postInit > 0 {
		slaMet = 100 * (1 - float64(tot.violations)/float64(tot.postInit))
	}
	res.SLAViolations, res.SLAMetPct = tot.violations, slaMet

	if !opt.trace {
		fill(res.Metrics, endToEnd, map[string]float64{
			"setup_s":           setupS,
			"iters_per_s":       unitMedian(func(c unitCost) float64 { return c.itersPerS }),
			"iter_ms_p50":       unitMedian(func(c unitCost) float64 { return c.p50 }),
			"iter_ms_p90":       unitMedian(func(c unitCost) float64 { return c.p90 }),
			"cpu_ms_per_iter":   unitMedian(func(c unitCost) float64 { return c.cpuMs }),
			"alloc_mb_per_iter": unitMedian(func(c unitCost) float64 { return c.allocMB }),
			"improvement_pct":   mean(improvement),
		})
		return res, nil
	}

	// Traced run: in-situ layer numbers from the workload just run, then the
	// probes.
	vals := map[string]float64{}
	spans := tr.allSpans()
	totals := spanTotals(spans)
	vals["core.model_update_ms_per_iter"] = ms(tot.modelUpdate) / completed
	vals["core.recommend_ms_per_iter"] = ms(tot.recommend) / completed
	vals["core.replay_ms_per_iter"] = ms(tot.replay) / completed
	if tot.step > 0 {
		vals["core.step_self_ms_per_iter"] = ms(tot.step-tot.modelUpdate-tot.recommend-tot.replay) / completed
	}
	vals["core.sla_met_pct"] = slaMet
	vals["core.drift_events"] = float64(tot.driftEvents)
	vals["core.drift_resets"] = float64(tot.driftResets)
	if len(sessions) > 0 {
		vals["core.iters_to_best"] = float64(tot.itersToBest) / float64(len(sessions))
	}
	if r.workers > 1 {
		vals["core.fleet_busy_share"] = cpuTotal.Seconds() / (wall.Seconds() * float64(r.workers))
		vals["core.fleet_step_wait_ms_p90"] = quantile(waitMs, 0.9)
	}
	vals["gp.hyper_search_busy_ms_per_iter"] = ms(totals["gp.fit_hyperparams"].Total) / completed
	vals["bo.optimize_acq_busy_ms_per_iter"] = ms(totals["bo.optimize_acq"].Total) / completed
	res.SelfMs = make(map[string]float64, len(totals))
	for name, t := range totals {
		res.SelfMs[name] = ms(t.Self)
	}
	anchors, reselects := lastSparseState(spans)
	vals["gp.sparse_anchors"] = anchors
	vals["gp.sparse_reselects"] = reselects
	if r.layer != nil {
		r.layer(vals)
	}
	vals["obs.traced_iters_per_s"] = unitMedian(func(c unitCost) float64 { return c.itersPerS })
	vals["obs.trace_overhead_pct"] = 100 * float64(tr.selfNs.Load()) / float64(wall)
	vals["obs.events_per_iter"] = float64(tr.events.Load()) / completed

	if err := runProbes(vals, opt); err != nil {
		res.Correct = false
		if res.CheckErr == "" {
			res.CheckErr = err.Error()
		}
	}
	fill(res.Metrics, perLayer, vals)

	if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
		return res, fmt.Errorf("trace directory: %w", err)
	}
	path := filepath.Join(opt.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", def.Name, opt.seed))
	if err := writeTrace(tr, path); err != nil {
		return res, err
	}
	res.TraceFile = path
	return res, nil
}

// lastSparseState reads the sparse-inference state the program attaches to
// its own iteration spans while an anchor subset is live.
func lastSparseState(spans []spanRec) (anchors, reselects float64) {
	for _, sp := range spans {
		if sp.Name != "core.iteration" {
			continue
		}
		for _, a := range sp.Attrs {
			v, isInt := a.Value.(int)
			switch {
			case isInt && a.Key == "gp_sparse_m":
				anchors = float64(v)
			case isInt && a.Key == "gp_sparse_reselect":
				reselects = float64(v)
			}
		}
	}
	return anchors, reselects
}

// fill copies every defined metric out of vals; a metric that does not apply
// to the workload reads 0.
func fill(dst map[string]metricValue, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		dst[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
