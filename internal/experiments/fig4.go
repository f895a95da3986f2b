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
	register("fig4", "Hardware adaptation: transfer between instances A and B (varying-hardware setting)", runFig4)
	register("table4", "Workload adaptation to instances C/D/E/F: improvement, iterations, speedup", runTable4)
}

// runFig4 reproduces Figure 4: under the varying-hardware setting, the
// repository is restricted to the *other* instance's tasks, and ResTune's
// rank-based transfer should stay ahead of both ResTune-w/o-ML and
// OtterTune-w-Con's absolute-metric mapping.
func runFig4(p Params) (*Report, error) {
	r := newReport("fig4", Title("fig4"))
	space := knobs.CPUSpace()
	rep, err := buildRepository(space, dbsim.CPUPct, p, halfRAM)
	if err != nil {
		return nil, err
	}

	directions := []struct {
		src, dst string
	}{
		{"B", "A"},
		{"A", "B"},
	}
	r.Addf("%-10s %-14s %-18s %12s %14s %12s", "Transfer", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%")
	type job struct {
		label string
		w     workload.Workload
		dst   string
		tuner core.Tuner
		seed  int64
	}
	var jobs []job
	for di, dir := range directions {
		onlySrc := func(t repo.TaskRecord) bool { return t.Hardware == dir.src }
		srcTasks := rep.Filter(onlySrc)
		for wi, w := range workload.Five() {
			seed := p.Seed + int64(1000*di+10*wi)
			restune, err := restuneFor(p, rep, space, w, seed, onlySrc)
			if err != nil {
				return nil, err
			}
			m := newMethodSet(p, seed, restune, srcTasks)
			methods := []core.Tuner{m.def, m.restune, m.scratch, m.otterTune}
			label := fmt.Sprintf("%s->%s", dir.src, dir.dst)
			for mi, m := range methods {
				jobs = append(jobs, job{label, w, dir.dst, m, seed + int64(mi)})
			}
		}
	}
	type row struct {
		label, workload, method string
		series                  []float64
	}
	rows, err := parallelMap(len(jobs), func(i int) (row, error) {
		j := jobs[i]
		series, res, err := comparisonRun(p, func(run int) (core.Tuner, core.Evaluator, error) {
			return j.tuner, cpuEvaluator(j.w, j.dst, space, j.seed+int64(run)), nil
		})
		if err != nil {
			return row{}, err
		}
		return row{j.label, j.w.Name, res.Method, series}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, rw := range rows {
		r.AddSeries(fmt.Sprintf("%s/%s/%s", rw.label, rw.workload, rw.method), rw.series)
		def, best := rw.series[0], rw.series[len(rw.series)-1]
		r.Addf("%-10s %-14s %-18s %12.1f %14.1f %12.1f",
			rw.label, rw.workload, rw.method, def, best, (def-best)/def*100)
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.2.1): ResTune > ResTune-w/o-ML in all cases;")
	r.Addf("OtterTune-w-Con's absolute-metric mapping can fall behind even w/o-ML.")
	return r, nil
}

// runTable4 reproduces Table 4: repository data from instances A and B used
// to tune SYSBENCH(100G) and TPC-C(100G) on instances C, D, E and F.
// Reported per cell: improvement over default, iterations-to-best, and the
// iteration speedup of ResTune over ResTune-w/o-ML.
func runTable4(p Params) (*Report, error) {
	r := newReport("table4", Title("table4"))
	space := knobs.CPUSpace()
	rep, err := buildRepository(space, dbsim.CPUPct, p, halfRAM)
	if err != nil {
		return nil, err
	}

	targets := []workload.Workload{workload.Sysbench100G(), workload.TPCC100G()}
	instances := []string{"C", "D", "E", "F"}
	r.Addf("%-16s %-9s %-18s %12s %14s %10s", "Workload", "Instance", "Method", "Improve%", "ItersToBest", "SpeedUp%")
	type cell struct {
		w    workload.Workload
		hw   string
		seed int64
	}
	var cells []cell
	for ti, w := range targets {
		for ii, hw := range instances {
			cells = append(cells, cell{w, hw, p.Seed + int64(100*ti+10*ii)})
		}
	}
	type cellResult struct{ meta, scratch *core.Result }
	results, err := parallelMap(len(cells), func(i int) (cellResult, error) {
		c := cells[i]
		restune, err := restuneFor(p, rep, space, c.w, c.seed, nil)
		if err != nil {
			return cellResult{}, err
		}
		resMeta, err := restune.Run(cpuEvaluator(c.w, c.hw, space, c.seed), p.Iters)
		if err != nil {
			return cellResult{}, err
		}
		resScratch, err := scratchTuner(p, c.seed).Run(cpuEvaluator(c.w, c.hw, space, c.seed+1), p.Iters)
		if err != nil {
			return cellResult{}, err
		}
		return cellResult{resMeta, resScratch}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		resMeta, resScratch := results[i].meta, results[i].scratch
		iM, iS := resMeta.IterationsToBest(), resScratch.IterationsToBest()
		speedup := 0.0
		if iS > 0 {
			speedup = (1 - float64(iM)/float64(iS)) * 100
		}
		r.Addf("%-16s %-9s %-18s %12.2f %14d %10s", c.w.Name, c.hw, "ResTune", resMeta.ImprovementPct(), iM, "")
		r.Addf("%-16s %-9s %-18s %12.2f %14d %10.1f", c.w.Name, c.hw, "ResTune-w/o-ML", resScratch.ImprovementPct(), iS, speedup)
		r.AddSeries(fmt.Sprintf("%s/%s/ResTune", c.w.Name, c.hw), resMeta.BestFeasibleSeries())
		r.AddSeries(fmt.Sprintf("%s/%s/ResTune-w/o-ML", c.w.Name, c.hw), resScratch.BestFeasibleSeries())
	}
	r.Addf("")
	r.Addf("Expected shape (paper Table 4): ResTune finds equal-or-better configs in")
	r.Addf("fewer iterations on every unseen instance type.")
	return r, nil
}
