package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/repo"
	"repro/internal/shap"
	"repro/internal/workload"
)

func init() {
	register("fig6", "Case study on Twitter with 3 knobs: methods, ablation, weight trajectory, response surfaces", runFig6)
	register("table5", "Statistics about the Twitter workload variations W1..W5", runTable5)
	register("table6", "Best 3-knob configurations found by each method vs grid-search ground truth", runTable6)
	register("fig7", "SHAP path: per-knob contributions from default to tuned configuration", runFig7)
}

// caseStudy is the Twitter case study's repository — each variant W1..W5
// LHS-sampled on instance A (the paper collects 200 LHS observations per
// variant), as a task record with internal metrics (for OtterTune) and as a
// base-learner — and the target's meta-feature.
type caseStudy struct {
	tasks    []repo.TaskRecord
	learners []*meta.BaseLearner
	mf       []float64
}

func newCaseStudy(p Params) (*caseStudy, error) {
	cs := &caseStudy{}
	space := knobs.CaseStudySpace()
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		seed := p.Seed + int64(77*i)
		task, bl, err := lhsTask(p, w.Name, w, "A", simEvaluator(w, "A", space, dbsim.CPUPct, seed, halfRAM), seed)
		if err != nil {
			return nil, err
		}
		cs.tasks = append(cs.tasks, task)
		cs.learners = append(cs.learners, bl)
	}
	mf, err := metaFeatureOf(workload.Twitter(), p.Seed)
	if err != nil {
		return nil, err
	}
	cs.mf = mf
	return cs, nil
}

// config is a ResTune session over the variant repository.
func (cs *caseStudy) config(p Params, seed int64, name string) core.Config {
	return p.config(seed, name, meta.TasksOf(cs.learners...), cs.mf)
}

// caseStudyRows is one averaged row per tuner on the case-study task —
// Twitter on instance A over the 3 knobs — the i-th seeded p.Seed+10i (plus
// the run).
func caseStudyRows(p Params, keys []string, tuners []core.Tuner) []row {
	rows := make([]row, len(tuners))
	for i, t := range tuners {
		rows[i] = p.averaged(keys[i], t, simRuns(workload.Twitter(), "A", knobs.CaseStudySpace(), dbsim.CPUPct, p.Seed+int64(10*i), halfRAM))
	}
	return rows
}

func runFig6(p Params) (*Report, error) {
	r := newReport("fig6", Title("fig6"))
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}

	// --- (a) method comparison and (b) workload-characterization ablation:
	// ResTune-w/o-Workload meta-learns from an LHS design instead of the
	// static phase.
	m := newMethodSet(p, p.Seed, meta.TasksOf(cs.learners...), cs.mf, cs.tasks)
	woWorkload := cs.config(p, p.Seed, "ResTune-w/o-Workload")
	woWorkload.UseWorkloadChar = false
	tuners := []core.Tuner{m.def, m.restune, m.scratch, m.iTuned, m.otterTune, m.cdbTune, core.New(woWorkload)}
	keys := make([]string, len(tuners))
	for i, t := range tuners {
		keys[i] = "fig6a/" + t.Name()
	}
	out, err := runRows(caseStudyRows(p, keys, tuners))
	if err != nil {
		return nil, err
	}
	r.Addf("(a/b) Tuning evaluation of different methods, Twitter, 3 knobs:")
	r.Addf("%-22s %12s %14s %12s", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%")
	for _, o := range out {
		r.AddSeries(o.key, o.series)
		def, best := o.series[0], o.series[len(o.series)-1]
		r.Addf("%-22s %12.1f %14.1f %12.1f", o.last.Method, def, best, (def-best)/def*100)
	}

	// --- (c) ResTune's weight assignment over iterations.
	r.Addf("")
	r.Addf("(c) ResTune weight assignment (%% per iteration; columns W1..W5, WT):")
	names := []string{"W1", "W2", "W3", "W4", "W5", "WT"}
	trajectories := make([][]float64, len(names))
	header := fmt.Sprintf("%-6s", "iter")
	for _, n := range names {
		header += fmt.Sprintf(" %6s", n)
	}
	r.Addf("%s", header)
	for _, it := range out[1].last.Iterations { // out[1] is ResTune's row
		if len(it.Weights) != len(names) {
			continue
		}
		line := fmt.Sprintf("%-6d", it.Index)
		for i, w := range it.Weights {
			trajectories[i] = append(trajectories[i], w*100)
			line += fmt.Sprintf(" %6.1f", w*100)
		}
		r.Addf("%s", line)
	}
	for i, n := range names {
		r.AddSeries("fig6c/"+n, trajectories[i])
	}

	// --- (d)/(e) TPS response surfaces of WT and W1 over
	// (spin_wait_delay x thread_concurrency).
	r.Addf("")
	r.Addf("(d/e) TPS response surfaces over spin_wait_delay x thread_concurrency:")
	for _, tgt := range []workload.Workload{workload.Twitter(), workload.TwitterVariant(1)} {
		sim := dbsim.New(dbsim.Instance("A"), tgt.Profile, p.Seed, halfRAM)
		space := knobs.CaseStudySpace()
		r.Addf("surface %s:", tgt.Name)
		var surf []float64
		for _, tc := range []float64{4, 16, 32, 64, 112} {
			line := fmt.Sprintf(" tc=%-4.0f", tc)
			for _, spin := range []float64{0, 16, 32, 48, 64} {
				m := sim.EvalNoiseless(space, []float64{tc, spin, 1024})
				line += fmt.Sprintf(" %8.0f", m.TPS)
				surf = append(surf, m.TPS)
			}
			r.Addf("%s", line)
		}
		r.AddSeries("fig6surface/"+tgt.Name, surf)
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.3): ResTune fastest; w/o-Workload slower than")
	r.Addf("ResTune; W1's surface resembles WT's; similar variants get high weight early,")
	r.Addf("and the target base-learner's weight dominates as observations accumulate.")
	return r, nil
}

func runTable5(p Params) (*Report, error) {
	r := newReport("table5", Title("table5"))
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}
	learners, targetMF := cs.learners, cs.mf

	// A short target observation track, as the tuner would hold mid-session.
	target := simEvaluator(workload.Twitter(), "A", knobs.CaseStudySpace(), dbsim.CPUPct, p.Seed, halfRAM)
	h := lhsSample(target, 20, p.Seed+5, false).History()

	static := meta.StaticWeights(learners, targetMF, true, meta.EpanechnikovBandwidth)
	sumW := 0.0
	for _, w := range static {
		sumW += w
	}
	losses := meta.MeanRankingLossPct(learners, h)

	r.Addf("%-10s %-10s %12s %14s %14s", "Workload", "R/W", "DistToWT", "StaticWeight%", "RankingLoss%")
	rw := []string{"116:1", "32:1", "19:1", "14:1", "11:1", "9:1"}
	// Target row first (paper lists WT with its static weight).
	r.Addf("%-10s %-10s %12.3f %14.2f %14s", "WT", rw[0], 0.0, static[len(static)-1]/sumW*100, "/")
	var dists, weights []float64
	for i, bl := range learners {
		d := workload.MetaFeatureDistance(bl.MetaFeature, targetMF)
		r.Addf("%-10s %-10s %12.3f %14.2f %14.2f", fmt.Sprintf("W%d", i+1), rw[i+1], d, static[i]/sumW*100, losses[i])
		dists = append(dists, d)
		weights = append(weights, static[i]/sumW*100)
	}
	r.AddSeries("distance", dists)
	r.AddSeries("static_weight_pct", weights)
	r.AddSeries("ranking_loss_pct", losses)
	r.Addf("")
	r.Addf("Expected shape (paper Table 5): distance and ranking loss grow from W1 to")
	r.Addf("W5 while the static weight shrinks.")
	return r, nil
}

func runTable6(p Params) (*Report, error) {
	r := newReport("table6", Title("table6"))
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}
	space := knobs.CaseStudySpace()

	m := newMethodSet(p, p.Seed, meta.TasksOf(cs.learners...), cs.mf, cs.tasks)
	var rows []row
	for mi, t := range []core.Tuner{
		m.def, baselines.NewGridSearch(p.config(p.Seed, "", nil, nil), 8), m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned,
	} {
		rows = append(rows, p.once(t.Name(), t, simRuns(workload.Twitter(), "A", space, dbsim.CPUPct, p.Seed+int64(20*mi), halfRAM)))
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	r.Addf("%-18s %20s %18s %16s %8s", "Method", "thread_concurrency", "spin_wait_delay", "lru_scan_depth", "CPU%")
	for _, o := range out {
		best, ok := o.last.BestFeasible()
		if !ok {
			r.Addf("%-18s %20s %18s %16s %8s", o.last.Method, "-", "-", "-", "infeasible")
			continue
		}
		native := space.Denormalize(best.Theta)
		r.Addf("%-18s %20.0f %18.0f %16.0f %8.2f", o.last.Method, native[0], native[1], native[2], best.Res)
		r.AddSeries("best/"+o.last.Method, append(native, best.Res))
	}
	r.Addf("")
	r.Addf("Expected shape (paper Table 6): ResTune at or below grid search's CPU with")
	r.Addf("a moderate thread_concurrency cap and spinning disabled; iTuned's pick")
	r.Addf("violates throughput or keeps CPU high; CDBTune-w-Con lands far from optimal.")
	return r, nil
}

func runFig7(p Params) (*Report, error) {
	r := newReport("fig7", Title("fig7"))
	cs, err := newCaseStudy(p)
	if err != nil {
		return nil, err
	}
	space := knobs.CaseStudySpace()
	w := workload.Twitter()
	o, err := p.once("ResTune", core.New(cs.config(p, p.Seed, "")), simRuns(w, "A", space, dbsim.CPUPct, p.Seed, halfRAM)).run()
	if err != nil {
		return nil, err
	}
	best, ok := o.last.BestFeasible()
	if !ok {
		return nil, fmt.Errorf("fig7: no feasible configuration found")
	}
	tuned := space.Denormalize(best.Theta)
	def := dbsim.DefaultNative(space, dbsim.Instance("A"))

	// Exact Shapley attribution of each knob's move from default to tuned,
	// for each output metric, against the noiseless simulator.
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, p.Seed, halfRAM)
	valueFor := func(metric func(dbsim.Measurement) float64) shap.ValueFunc {
		return func(mask uint) float64 {
			native := append([]float64(nil), def...)
			for i := range native {
				if mask&(1<<i) != 0 {
					native[i] = tuned[i]
				}
			}
			return metric(sim.EvalNoiseless(space, native))
		}
	}
	metrics := []struct {
		name string
		get  func(dbsim.Measurement) float64
	}{
		{"CPU(%)", func(m dbsim.Measurement) float64 { return m.CPUUtilPct }},
		{"Throughput(txn/s)", func(m dbsim.Measurement) float64 { return m.TPS }},
		{"Latency(ms)", func(m dbsim.Measurement) float64 { return m.LatencyP99Ms }},
	}

	r.Addf("Tuned configuration: %s", space.Describe(tuned))
	r.Addf("")
	r.Addf("%-20s %16s %16s %16s", "Metric", knobShort(space, 0), knobShort(space, 1), knobShort(space, 2))
	for _, mt := range metrics {
		v := valueFor(mt.get)
		phi := shap.Values(space.Dim(), v)
		r.Addf("%-20s %16.2f %16.2f %16.2f", mt.name, phi[0], phi[1], phi[2])
		r.AddSeries("shap/"+mt.name, phi)
		// Efficiency check: contributions bridge default -> tuned exactly.
		if diff := math.Abs(shap.Sum(phi) - (v(uint(1)<<space.Dim()-1) - v(0))); diff > 1e-6 {
			return nil, fmt.Errorf("fig7: SHAP efficiency violated by %g", diff)
		}
	}
	r.Addf("")
	r.Addf("Expected shape (paper Fig 7): thread_concurrency contributes the largest")
	r.Addf("CPU reduction; spin_wait_delay=0 saves CPU at a latency cost (the trade-off")
	r.Addf("arrow); lru_scan_depth's setting serves throughput/latency, not CPU.")
	return r, nil
}

func knobShort(s *knobs.Space, i int) string {
	name := s.Knobs()[i].Name
	const pre = "innodb_"
	if len(name) > len(pre) && name[:len(pre)] == pre {
		return name[len(pre):]
	}
	return name
}
