package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

func init() {
	register("fig3", "Efficiency comparison: best feasible CPU vs iteration, 5 workloads x 6 methods (original setting)", runFig3)
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

func runFig3(p Params) (*Report, error) {
	r := newReport("fig3", Title("fig3"))
	space := knobs.CPUSpace()
	rep, err := BuildRepository(space, dbsim.CPUPct, p, true)
	if err != nil {
		return nil, err
	}

	// The original setting: the full repository, the target's own history
	// included.
	var rows []row
	for wi, w := range workload.Five() {
		m, err := repoMethodSet(p, rep, nil, space, w, p.Seed+int64(wi))
		if err != nil {
			return nil, err
		}
		for mi, t := range []core.Tuner{m.def, m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned} {
			rows = append(rows, p.averaged(w.Name+"/"+t.Name(), t,
				simRuns(w, "A", space, dbsim.CPUPct, p.Seed+int64(100*wi+10*mi), halfRAM)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}
	// The scratch tuner's final value per workload anchors the paper's
	// speedup statement ("ResTune recommends w/o-ML's best results within
	// the first 10 iterations").
	scratchFinal := map[string]float64{}
	for _, o := range out {
		if wl, method, _ := strings.Cut(o.key, "/"); method == "ResTune-w/o-ML" {
			scratchFinal[wl] = o.series[len(o.series)-1]
		}
	}
	r.Addf("%-14s %-18s %12s %14s %12s %12s %14s", "Workload", "Method", "DefaultCPU%", "BestFeasCPU%", "Improve%", "ItersToBest", "ToScratchBest")
	for _, o := range out {
		wl, method, _ := strings.Cut(o.key, "/")
		r.AddSeries(o.key, o.series)
		def, best := o.series[0], o.series[len(o.series)-1]
		toScratch := "-"
		if it := itersToValue(o.series, scratchFinal[wl]); it >= 0 {
			toScratch = fmt.Sprintf("%d", it)
		}
		r.Addf("%-14s %-18s %12.1f %14.1f %12.1f %12d %14s", wl, method, def, best, (def-best)/def*100, itersToWithin(o.series), toScratch)
	}
	r.Addf("")
	r.Addf("Expected shape (paper 7.1): ResTune reaches w/o-ML's best within ~10")
	r.Addf("iterations; w/o-ML beats iTuned and CDBTune-w-Con; OtterTune-w-Con trails ResTune.")
	return r, nil
}
