package experiments

import (
	"strings"

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
	rep, err := BuildRepository(space, dbsim.CPUPct, p, true)
	if err != nil {
		return nil, err
	}

	var rows []row
	for wi, w := range workload.Five() {
		seed := p.Seed + int64(10*wi)
		holdOut := func(t repo.TaskMeta) bool { return t.Workload != w.Name }
		m, err := repoMethodSet(p, rep, holdOut, space, w, seed)
		if err != nil {
			return nil, err
		}
		for mi, t := range []core.Tuner{m.def, m.restune, m.scratch, m.otterTune} {
			rows = append(rows, p.averaged(w.Name+"/"+t.Name(), t,
				simRuns(w, "A", space, dbsim.CPUPct, seed+int64(mi), halfRAM)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}
	r.Addf("%-14s %-18s %12s %14s %12s %12s", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%", "ItersToBest")
	for _, o := range out {
		wl, method, _ := strings.Cut(o.key, "/")
		r.AddSeries(o.key, o.series)
		def, best := o.series[0], o.series[len(o.series)-1]
		r.Addf("%-14s %-18s %12.1f %14.1f %12.1f %12d", wl, method, def, best, (def-best)/def*100, itersToWithin(o.series))
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.2.2): ResTune outperforms all baselines on the")
	r.Addf("same instance even with the target workload's history held out.")
	return r, nil
}
