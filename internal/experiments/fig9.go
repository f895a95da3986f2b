package experiments

import (
	"fmt"

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
	fixedBP  bool // IO experiments pin the buffer pool at 16G
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
	cases := []fig9Case{
		{"a-bps-sysbench", sys, tpc, dbsim.IOBps, knobs.IOSpace(), true, "MB/s", 1e-6},
		{"b-bps-tpcc", tpc, sys, dbsim.IOBps, knobs.IOSpace(), true, "MB/s", 1e-6},
		{"c-iops-sysbench", sys, tpc, dbsim.IOPS, knobs.IOSpace(), true, "op/s", 1},
		{"d-iops-tpcc", tpc, sys, dbsim.IOPS, knobs.IOSpace(), true, "op/s", 1},
		{"e-memory-sysbench", sys, tpc, dbsim.MemoryBytes, knobs.MemorySpace(), false, "GB", 1e-9},
		{"f-memory-tpcc", tpc, sys, dbsim.MemoryBytes, knobs.MemorySpace(), false, "GB", 1e-9},
	}

	for ci, c := range cases {
		seed := p.Seed + int64(100*ci)
		ev := func(s int64) core.Evaluator {
			opts := []dbsim.Option{}
			if c.fixedBP {
				opts = append(opts, dbsim.WithFixedBufferPool(16<<30))
			}
			target := calibrateRate(c.target, "E", s, opts...)
			sim := dbsim.New(dbsim.Instance("E"), target.Profile, s, opts...)
			return core.NewSimEvaluator(sim, c.space, c.resource)
		}

		// Repository: the donor workload only, sampled on instance E with
		// the same buffer-pool policy.
		donorTask, donorLearner, err := fig9Donor(p, c, seed)
		if err != nil {
			return nil, err
		}

		mf, err := metaFeatureOf(c.target, p.Seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(seed)
		cfg.Acq = p.Acq
		cfg.Corpus = meta.NewCorpus(meta.TasksOf(donorLearner), meta.CorpusOptions{})
		cfg.TargetMetaFeature = mf
		m := newMethodSet(p, seed, core.New(cfg), []repo.TaskRecord{donorTask})
		methods := []core.Tuner{m.def, m.restune, m.scratch, m.otterTune, m.cdbTune, m.iTuned}

		r.Addf("(%s) minimize %s for %s (repository: %s):", c.label, c.resource, c.target.Name, c.source.Name)
		r.Addf("  %-18s %14s %14s %10s", "Method", "Default", "BestFeasible", "Improve%")
		for mi, m := range methods {
			res, err := m.Run(ev(seed+int64(mi)), p.Iters)
			if err != nil {
				return nil, err
			}
			series := res.BestFeasibleSeries()
			r.AddSeries(fmt.Sprintf("%s/%s", c.label, res.Method), series)
			def, best := series[0]*c.scale, series[len(series)-1]*c.scale
			imp := 0.0
			if def > 0 {
				imp = (def - best) / def * 100
			}
			r.Addf("  %-18s %11.2f%s %11.2f%s %9.1f", res.Method, def, c.unit, best, c.unit, imp)
		}
		r.Addf("")
	}
	r.Addf("Expected shape (paper 7.5): ResTune cuts BPS by 60-80%% and IOPS by")
	r.Addf("84-90%% vs default, reduces memory (22.5G->16.3G TPC-C, 25.4G->12.6G")
	r.Addf("SYSBENCH scale), and outperforms the baselines on all six panels.")
	return r, nil
}

// fig9Donor LHS-samples the donor workload for a Figure-9 panel on
// instance E with the panel's buffer-pool policy.
func fig9Donor(p Params, c fig9Case, seed int64) (repo.TaskRecord, *meta.BaseLearner, error) {
	opts := []dbsim.Option{}
	if c.fixedBP {
		opts = append(opts, dbsim.WithFixedBufferPool(16<<30))
	}
	source := calibrateRate(c.source, "E", seed+1, opts...)
	sim := dbsim.New(dbsim.Instance("E"), source.Profile, seed+1, opts...)
	return lhsTask(p, c.source.Name+"@E", c.source, "E", sim, c.space, c.resource, seed+1)
}
