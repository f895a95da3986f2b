package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/bo"
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

// caseStudyRepo LHS-samples each Twitter variant W1..W5 on instance A (the
// paper collects 200 LHS observations per variant) and returns both task
// records (with internal metrics, for OtterTune) and base-learners.
func caseStudyRepo(p Params) ([]repo.TaskRecord, []*meta.BaseLearner, error) {
	var tasks []repo.TaskRecord
	var learners []*meta.BaseLearner
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		seed := p.Seed + int64(77*i)
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
		task, bl, err := lhsTask(p, w.Name, w, "A", sim, knobs.CaseStudySpace(), dbsim.CPUPct, seed)
		if err != nil {
			return nil, nil, err
		}
		tasks = append(tasks, task)
		learners = append(learners, bl)
	}
	return tasks, learners, nil
}

// caseStudyEvaluator is Twitter on instance A over the 3 case-study knobs.
func caseStudyEvaluator(seed int64) core.Evaluator {
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return core.NewSimEvaluator(sim, knobs.CaseStudySpace(), dbsim.CPUPct)
}

// caseStudyResTune builds the meta-boosted tuner over the variant repository.
func caseStudyResTune(p Params, learners []*meta.BaseLearner, seed int64) (core.Tuner, error) {
	mf, err := metaFeatureOf(workload.Twitter(), p.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(seed)
	cfg.Acq = p.Acq
	cfg.Corpus = meta.NewCorpus(meta.TasksOf(learners...), meta.CorpusOptions{})
	cfg.TargetMetaFeature = mf
	return core.New(cfg), nil
}

func runFig6(p Params) (*Report, error) {
	r := newReport("fig6", Title("fig6"))
	tasks, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	mf, err := metaFeatureOf(workload.Twitter(), p.Seed)
	if err != nil {
		return nil, err
	}

	// --- (a) method comparison and (b) workload-characterization ablation.
	restune, err := caseStudyResTune(p, learners, p.Seed)
	if err != nil {
		return nil, err
	}
	m := newMethodSet(p, p.Seed, restune, tasks)
	methods := []core.Tuner{
		m.def, m.restune, m.scratch, m.iTuned, m.otterTune, m.cdbTune,
		baselines.NewResTuneWithoutWorkload(p.Seed, learners, mf),
	}
	r.Addf("(a/b) Tuning evaluation of different methods, Twitter, 3 knobs:")
	r.Addf("%-22s %12s %14s %12s", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%")
	var restuneResult *core.Result
	for mi, m := range methods {
		tuner := m
		series, res, err := comparisonRun(p, func(run int) (core.Tuner, core.Evaluator, error) {
			return tuner, caseStudyEvaluator(p.Seed + int64(10*mi+run)), nil
		})
		if err != nil {
			return nil, err
		}
		if res.Method == "ResTune" {
			restuneResult = res
		}
		r.AddSeries("fig6a/"+res.Method, series)
		def, best := series[0], series[len(series)-1]
		r.Addf("%-22s %12.1f %14.1f %12.1f", res.Method, def, best, (def-best)/def*100)
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
	for _, it := range restuneResult.Iterations {
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
		sim := dbsim.New(dbsim.Instance("A"), tgt.Profile, p.Seed, dbsim.WithHalfRAMBufferPool())
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
	_, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	target := workload.Twitter()
	targetMF, err := metaFeatureOf(target, p.Seed)
	if err != nil {
		return nil, err
	}

	// A short target observation track, as the tuner would hold mid-session.
	space := knobs.CaseStudySpace()
	sim := dbsim.New(dbsim.Instance("A"), target.Profile, p.Seed, dbsim.WithHalfRAMBufferPool())
	var h bo.History
	for _, u := range core.LHSInit(20, space.Dim(), p.Seed+5) {
		theta := space.Quantize(u)
		m := sim.Eval(space, space.Denormalize(theta))
		h = append(h, bo.Observation{Theta: theta, Res: m.CPUUtilPct, Tps: m.TPS, Lat: m.LatencyP99Ms})
	}

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
	tasks, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	space := knobs.CaseStudySpace()

	restune, err := caseStudyResTune(p, learners, p.Seed)
	if err != nil {
		return nil, err
	}
	m := newMethodSet(p, p.Seed, restune, tasks)
	methods := []core.Tuner{
		m.def, baselines.NewGridSearch(sessionConfig(p, p.Seed), 8), m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned,
	}

	r.Addf("%-18s %20s %18s %16s %8s", "Method", "thread_concurrency", "spin_wait_delay", "lru_scan_depth", "CPU%")
	for mi, m := range methods {
		res, err := m.Run(caseStudyEvaluator(p.Seed+int64(20*mi)), p.Iters)
		if err != nil {
			return nil, err
		}
		best, ok := res.BestFeasible()
		if !ok {
			r.Addf("%-18s %20s %18s %16s %8s", res.Method, "-", "-", "-", "infeasible")
			continue
		}
		native := space.Denormalize(best.Theta)
		r.Addf("%-18s %20.0f %18.0f %16.0f %8.2f", res.Method, native[0], native[1], native[2], best.Res)
		r.AddSeries("best/"+res.Method, append(native, best.Res))
	}
	r.Addf("")
	r.Addf("Expected shape (paper Table 6): ResTune at or below grid search's CPU with")
	r.Addf("a moderate thread_concurrency cap and spinning disabled; iTuned's pick")
	r.Addf("violates throughput or keeps CPU high; CDBTune-w-Con lands far from optimal.")
	return r, nil
}

func runFig7(p Params) (*Report, error) {
	r := newReport("fig7", Title("fig7"))
	_, learners, err := caseStudyRepo(p)
	if err != nil {
		return nil, err
	}
	space := knobs.CaseStudySpace()
	restune, err := caseStudyResTune(p, learners, p.Seed)
	if err != nil {
		return nil, err
	}
	res, err := restune.Run(caseStudyEvaluator(p.Seed), p.Iters)
	if err != nil {
		return nil, err
	}
	best, ok := res.BestFeasible()
	if !ok {
		return nil, fmt.Errorf("fig7: no feasible configuration found")
	}
	tuned := space.Denormalize(best.Theta)
	def := dbsim.DefaultNative(space, dbsim.Instance("A"))

	// Exact Shapley attribution of each knob's move from default to tuned,
	// for each output metric, against the noiseless simulator.
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, p.Seed, dbsim.WithHalfRAMBufferPool())
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
