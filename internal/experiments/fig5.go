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
	register("fig5", "Workload adaptation: target workload's meta-data held out (varying-workloads setting)", runFig5)
}

// runFig5 reproduces Figure 5: for each target workload, the repository
// drops every task of that workload, so all transfer must come from *other*
// workloads' histories.
func runFig5(p Params) (*Report, error) {
	r := newReport("fig5", Title("fig5"))
	space := knobs.CPUSpace()
	rep, err := buildRepository(space, dbsim.CPUPct, p, halfRAM)
	if err != nil {
		return nil, err
	}

	r.Addf("%-14s %-18s %12s %14s %12s %12s", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%", "ItersToBest")
	type job struct {
		w     workload.Workload
		tuner core.Tuner
		seed  int64
	}
	var jobs []job
	for wi, w := range workload.Five() {
		seed := p.Seed + int64(10*wi)
		holdOut := func(t repo.TaskRecord) bool { return t.Workload != w.Name }
		restune, err := restuneFor(p, rep, space, w, seed, holdOut)
		if err != nil {
			return nil, err
		}
		m := newMethodSet(p, seed, restune, rep.Filter(holdOut))
		methods := []core.Tuner{m.def, m.restune, m.scratch, m.otterTune}
		for mi, m := range methods {
			jobs = append(jobs, job{w, m, seed + int64(mi)})
		}
	}
	type row struct {
		workload, method string
		series           []float64
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
	for _, rw := range rows {
		r.AddSeries(fmt.Sprintf("%s/%s", rw.workload, rw.method), rw.series)
		def, best := rw.series[0], rw.series[len(rw.series)-1]
		r.Addf("%-14s %-18s %12.1f %14.1f %12.1f %12d", rw.workload, rw.method, def, best, (def-best)/def*100, itersToWithin(rw.series))
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.2.2): ResTune outperforms all baselines on the")
	r.Addf("same instance even with the target workload's history held out.")
	return r, nil
}
