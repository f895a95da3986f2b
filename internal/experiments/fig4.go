package experiments

import (
	"fmt"
	"strings"

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
	rep, err := BuildRepository(space, dbsim.CPUPct, p, true)
	if err != nil {
		return nil, err
	}

	var rows []row
	for di, dir := range []struct{ src, dst string }{{"B", "A"}, {"A", "B"}} {
		onlySrc := func(t repo.TaskMeta) bool { return t.Hardware == dir.src }
		for wi, w := range workload.Five() {
			seed := p.Seed + int64(1000*di+10*wi)
			m, err := repoMethodSet(p, rep, onlySrc, space, w, seed)
			if err != nil {
				return nil, err
			}
			for mi, t := range []core.Tuner{m.def, m.restune, m.scratch, m.otterTune} {
				rows = append(rows, p.averaged(fmt.Sprintf("%s->%s/%s/%s", dir.src, dir.dst, w.Name, t.Name()), t,
					simRuns(w, dir.dst, space, dbsim.CPUPct, seed+int64(mi), halfRAM)))
			}
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}
	r.Addf("%-10s %-14s %-18s %12s %14s %12s", "Transfer", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%")
	for _, o := range out {
		label, rest, _ := strings.Cut(o.key, "/")
		wl, method, _ := strings.Cut(rest, "/")
		r.AddSeries(o.key, o.series)
		def, best := o.series[0], o.series[len(o.series)-1]
		r.Addf("%-10s %-14s %-18s %12.1f %14.1f %12.1f", label, wl, method, def, best, (def-best)/def*100)
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
	rep, err := BuildRepository(space, dbsim.CPUPct, p, true)
	if err != nil {
		return nil, err
	}

	// Two rows per cell, ResTune then ResTune-w/o-ML.
	var rows []row
	for ti, w := range []workload.Workload{workload.Sysbench100G(), workload.TPCC100G()} {
		for ii, hw := range []string{"C", "D", "E", "F"} {
			seed := p.Seed + int64(100*ti+10*ii)
			m, err := repoMethodSet(p, rep, nil, space, w, seed)
			if err != nil {
				return nil, err
			}
			cell := w.Name + "/" + hw + "/"
			rows = append(rows,
				p.once(cell+"ResTune", m.restune, simRuns(w, hw, space, dbsim.CPUPct, seed, halfRAM)),
				p.once(cell+"ResTune-w/o-ML", m.scratch, simRuns(w, hw, space, dbsim.CPUPct, seed+1, halfRAM)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}
	r.Addf("%-16s %-9s %-18s %12s %14s %10s", "Workload", "Instance", "Method", "Improve%", "ItersToBest", "SpeedUp%")
	for i := 0; i < len(out); i += 2 {
		resMeta, resScratch := out[i].last, out[i+1].last
		wl, rest, _ := strings.Cut(out[i].key, "/")
		hw, _, _ := strings.Cut(rest, "/")
		iM, iS := resMeta.IterationsToBest(), resScratch.IterationsToBest()
		speedup := 0.0
		if iS > 0 {
			speedup = (1 - float64(iM)/float64(iS)) * 100
		}
		r.Addf("%-16s %-9s %-18s %12.2f %14d %10s", wl, hw, "ResTune", resMeta.ImprovementPct(), iM, "")
		r.Addf("%-16s %-9s %-18s %12.2f %14d %10.1f", wl, hw, "ResTune-w/o-ML", resScratch.ImprovementPct(), iS, speedup)
		r.AddSeries(out[i].key, out[i].series)
		r.AddSeries(out[i+1].key, out[i+1].series)
	}
	r.Addf("")
	r.Addf("Expected shape (paper Table 4): ResTune finds equal-or-better configs in")
	r.Addf("fewer iterations on every unseen instance type.")
	return r, nil
}
