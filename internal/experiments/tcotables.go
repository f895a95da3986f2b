package experiments

import (
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/tco"
	"repro/internal/workload"
)

func init() {
	register("table8", "1-year TCO reduction optimizing CPU usage across instances A-F", runTable8)
	register("table9", "1-year TCO reduction optimizing memory on instance E", runTable9)
}

// runTable8 reproduces Table 8: tune CPU for SYSBENCH and TPC-C on every
// instance type, convert default/tuned CPU utilization into cores used, and
// price the saved cores across the three providers.
func runTable8(p Params) (*Report, error) {
	r := newReport("table8", Title("table8"))
	instances := []string{"A", "B", "C", "D", "E", "F"}
	targets := []workload.Workload{workload.Sysbench(10), workload.TPCC(200)}
	var rows []row
	for ti, w := range targets {
		for ii, hwName := range instances {
			rows = append(rows, scratchRow(p, w.Name+"/"+hwName, w, hwName, p.Seed+int64(100*ti+10*ii)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	for _, w := range targets {
		r.Addf("%s:", w.Name)
		r.Addf("  %-9s %14s %15s %12s", "Instance", "OriginalCores", "OptimizedCores", "AvgTCOdown")
		var saved []float64
		for _, hwName := range instances {
			defCPU, bestCPU := defaultAndBest(out[0].last)
			out = out[1:]
			cores := dbsim.Instance(hwName).Cores
			orig := tco.CoresUsed(defCPU, cores)
			opt := tco.CoresUsed(bestCPU, cores)
			red := tco.CPUReduction(orig - opt)
			r.Addf("  %-9s %14d %15d %12s", hwName, orig, opt, tco.FormatUSD(red.Average))
			saved = append(saved, red.Average)
		}
		r.AddSeries("tco/"+w.Name, saved)
		r.Addf("")
	}
	r.Addf("Expected shape (paper Table 8): savings grow with instance size; small")
	r.Addf("saturated instances (C) save little or nothing.")
	return r, nil
}

// runTable9 reproduces Table 9: memory tuning on instance E for SYSBENCH
// and TPC-C, priced per provider. The simulator takes no buffer-pool
// option: the pool is one of the tuned knobs.
func runTable9(p Params) (*Report, error) {
	r := newReport("table9", Title("table9"))
	space := knobs.MemorySpace()
	targets := []workload.Workload{workload.Sysbench(30), workload.TPCC100G()}
	rows := make([]row, len(targets))
	for ti, w := range targets {
		seed := p.Seed + int64(10*ti)
		rows[ti] = p.once(w.Name, core.New(p.config(seed, "ResTune-w/o-ML", nil, nil)),
			simRuns(w, "E", space, dbsim.MemoryBytes, seed))
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	r.Addf("%-14s %12s %13s %10s %10s %10s", "Workload", "OrigMem(GB)", "OptMem(GB)", "AWS", "Azure", "Aliyun")
	for ti, w := range targets {
		orig, best := defaultAndBest(out[ti].last)
		origGB, bestGB := orig/1e9, best/1e9
		red := tco.MemoryReduction(origGB - bestGB)
		r.Addf("%-14s %12.2f %13.2f %10s %10s %10s",
			w.Name, origGB, bestGB,
			tco.FormatUSD(red.PerProvider["AWS"]),
			tco.FormatUSD(red.PerProvider["Azure"]),
			tco.FormatUSD(red.PerProvider["Aliyun"]))
		r.AddSeries("mem/"+w.Name, []float64{origGB, bestGB})
	}
	r.Addf("")
	r.Addf("Expected shape (paper Table 9): several GB of DBMS memory saved per")
	r.Addf("workload while the SLA holds; Aliyun prices memory highest per GB.")
	return r, nil
}
