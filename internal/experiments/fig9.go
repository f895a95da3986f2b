package experiments

import (
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/repo"
	"repro/internal/workload"
)

func init() {
	register("fig9", "Tuning other resources: IO (BPS, IOPS) and memory on instance E with cross-workload transfer", runFig9)
}

// fig9Case is one of the six Figure-9 panels.
type fig9Case struct {
	label    string
	target   workload.Workload
	source   workload.Workload // repository donor (varying-workloads setting)
	resource dbsim.ResourceKind
	space    *knobs.Space
	opts     []dbsim.Option // IO experiments pin the buffer pool at 16G
	unit     string
	scale    float64
}

// runFig9 reproduces Figure 9: optimizing IO bandwidth, IOPS and memory on
// instance E, with the repository holding only the *other* workload's
// history (SYSBENCH -> TPC-C and vice versa), exactly the paper's 7.5 setup:
// buffer pool fixed at 16G for the IO experiments (TPC-C 100G hit ~93.2%,
// SYSBENCH 30G hit ~97.5%) and tunable for the memory experiments.
func runFig9(p Params) (*Report, error) {
	r := newReport("fig9", Title("fig9"))
	sys := workload.Sysbench(30)
	tpc := workload.TPCC100G()
	io := []dbsim.Option{dbsim.WithFixedBufferPool(16 << 30)}
	cases := []fig9Case{
		{"a-bps-sysbench", sys, tpc, dbsim.IOBps, knobs.IOSpace(), io, "MB/s", 1e-6},
		{"b-bps-tpcc", tpc, sys, dbsim.IOBps, knobs.IOSpace(), io, "MB/s", 1e-6},
		{"c-iops-sysbench", sys, tpc, dbsim.IOPS, knobs.IOSpace(), io, "op/s", 1},
		{"d-iops-tpcc", tpc, sys, dbsim.IOPS, knobs.IOSpace(), io, "op/s", 1},
		{"e-memory-sysbench", sys, tpc, dbsim.MemoryBytes, knobs.MemorySpace(), nil, "GB", 1e-9},
		{"f-memory-tpcc", tpc, sys, dbsim.MemoryBytes, knobs.MemorySpace(), nil, "GB", 1e-9},
	}

	var rows []row
	for ci, c := range cases {
		seed := p.Seed + int64(100*ci)
		// Repository: the donor workload only, LHS-sampled on instance E
		// with the panel's buffer-pool policy.
		donorTask, donor, err := lhsTask(p, c.source.Name+"@E", c.source, "E",
			simEvaluator(c.source, "E", c.space, c.resource, seed+1, c.opts...), seed+1)
		if err != nil {
			return nil, err
		}
		mf, err := metaFeatureOf(c.target, p.Seed)
		if err != nil {
			return nil, err
		}
		m := newMethodSet(p, seed, meta.TasksOf(donor), mf, []repo.TaskRecord{donorTask})
		for mi, t := range []core.Tuner{m.def, m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned} {
			rows = append(rows, p.once(c.label+"/"+t.Name(), t, simRuns(c.target, "E", c.space, c.resource, seed+int64(mi), c.opts...)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	for _, c := range cases {
		r.Addf("(%s) minimize %s for %s (repository: %s):", c.label, c.resource, c.target.Name, c.source.Name)
		r.Addf("  %-18s %14s %14s %10s", "Method", "Default", "BestFeasible", "Improve%")
		for _, o := range out[:6] {
			r.AddSeries(o.key, o.series)
			def, best := o.series[0]*c.scale, o.series[len(o.series)-1]*c.scale
			imp := 0.0
			if def > 0 {
				imp = (def - best) / def * 100
			}
			r.Addf("  %-18s %11.2f%s %11.2f%s %9.1f", o.last.Method, def, c.unit, best, c.unit, imp)
		}
		out = out[6:]
		r.Addf("")
	}
	r.Addf("Expected shape (paper 7.5): ResTune cuts BPS by 60-80%% and IOPS by")
	r.Addf("84-90%% vs default, reduces memory (22.5G->16.3G TPC-C, 25.4G->12.6G")
	r.Addf("SYSBENCH scale), and outperforms the baselines on all six panels.")
	return r, nil
}
