package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/repo"
	"repro/internal/workload"
)

func init() {
	register("fig3", "Efficiency comparison: best feasible CPU vs iteration, 5 workloads x 6 methods (original setting)", runFig3)
}

// comparisonRun executes one (workload, method) session Runs times and
// returns the averaged best-feasible-resource series plus summary numbers.
func comparisonRun(p Params, build func(run int) (core.Tuner, core.Evaluator, error)) ([]float64, *core.Result, error) {
	var series [][]float64
	var last *core.Result
	for run := 0; run < maxI(p.Runs, 1); run++ {
		tuner, ev, err := build(run)
		if err != nil {
			return nil, nil, err
		}
		res, err := tuner.Run(ev, p.Iters)
		if err != nil {
			return nil, nil, err
		}
		series = append(series, res.BestFeasibleSeries())
		last = res
	}
	return averageSeries(series), last, nil
}

// itersToWithin returns the first iteration whose best-feasible value is
// within 2% of the series' final value — the "iterations to best" the
// paper's Table 4 and speedup claims are stated in.
func itersToWithin(series []float64) int {
	final := series[len(series)-1]
	for i, v := range series {
		if v <= final*1.02 {
			return i
		}
	}
	return len(series) - 1
}

// itersToValue returns the first iteration at or below target (within 2%),
// or -1 if the series never reaches it — used to state the paper's headline
// speedup: how fast each method reaches the scratch tuner's final value.
func itersToValue(series []float64, target float64) int {
	for i, v := range series {
		if v <= target*1.02 {
			return i
		}
	}
	return -1
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// cpuEvaluator builds the standard CPU-tuning evaluator on an instance,
// with the request rate calibrated to the instance as the paper's protocol
// prescribes.
func cpuEvaluator(w workload.Workload, hwName string, space *knobs.Space, seed int64) core.Evaluator {
	w = calibrateRate(w, hwName, seed, dbsim.WithHalfRAMBufferPool())
	sim := dbsim.New(dbsim.Instance(hwName), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	return core.NewSimEvaluator(sim, space, dbsim.CPUPct)
}

// fig3Methods builds the six Figure-3 methods for a target workload under
// the original setting (full repository, target's own history included).
func fig3Methods(p Params, rep *repo.Repository, space *knobs.Space, target workload.Workload, seed int64) ([]core.Tuner, error) {
	restune, err := restuneFor(p, rep, space, target, seed, nil)
	if err != nil {
		return nil, err
	}
	m := newMethodSet(p, seed, restune, rep.Tasks)
	return []core.Tuner{m.def, m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned}, nil
}

func runFig3(p Params) (*Report, error) {
	r := newReport("fig3", Title("fig3"))
	space := knobs.CPUSpace()
	rep, err := buildRepository(space, dbsim.CPUPct, p, halfRAM)
	if err != nil {
		return nil, err
	}

	r.Addf("%-14s %-18s %12s %14s %12s %12s %14s", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%", "ItersToBest", "ToScratchBest")
	// Build the full (workload, method) job list, then run sessions in
	// parallel: each is independently seeded.
	type job struct {
		w     workload.Workload
		tuner core.Tuner
		seed  int64
	}
	var jobs []job
	for wi, w := range workload.Five() {
		methods, err := fig3Methods(p, rep, space, w, p.Seed+int64(wi))
		if err != nil {
			return nil, err
		}
		for mi, m := range methods {
			jobs = append(jobs, job{w, m, p.Seed + int64(100*wi+10*mi)})
		}
	}
	type row struct {
		workload string
		method   string
		series   []float64
	}
	rows, err := parallelMap(len(jobs), func(i int) (row, error) {
		j := jobs[i]
		series, res, err := comparisonRun(p, func(run int) (core.Tuner, core.Evaluator, error) {
			return j.tuner, cpuEvaluator(j.w, "A", space, j.seed+int64(run)), nil
		})
		if err != nil {
			return row{}, err
		}
		return row{j.w.Name, res.Method, series}, nil
	})
	if err != nil {
		return nil, err
	}
	// The scratch tuner's final value per workload anchors the paper's
	// speedup statement ("ResTune recommends w/o-ML's best results within
	// the first 10 iterations").
	scratchFinal := map[string]float64{}
	for _, rw := range rows {
		if rw.method == "ResTune-w/o-ML" {
			scratchFinal[rw.workload] = rw.series[len(rw.series)-1]
		}
	}
	for _, rw := range rows {
		r.AddSeries(fmt.Sprintf("%s/%s", rw.workload, rw.method), rw.series)
		def, best := rw.series[0], rw.series[len(rw.series)-1]
		toScratch := "-"
		if it := itersToValue(rw.series, scratchFinal[rw.workload]); it >= 0 {
			toScratch = fmt.Sprintf("%d", it)
		}
		r.Addf("%-14s %-18s %12.1f %14.1f %12.1f %12d %14s", rw.workload, rw.method, def, best, (def-best)/def*100, itersToWithin(rw.series), toScratch)
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.1): ResTune reaches w/o-ML's best within ~10")
	r.Addf("iterations; w/o-ML beats iTuned and CDBTune-w-Con; OtterTune-w-Con trails ResTune.")
	return r, nil
}
