package experiments

import (
	"fmt"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/workload"
)

func init() {
	register("fig8", "Sensitivity analysis: feasible CPU under varying request rates (TPC-C, SYSBENCH)", runFig8)
	register("table7", "Sensitivity analysis: TPC-C data size sweep (hit ratio, default/best CPU, improvement)", runTable7)
}

// runFig8 reproduces Figure 8: tune at each request rate and report the
// default versus the best feasible CPU, plus the paper's transfer check —
// the knobs found at one rate applied unchanged across all rates.
func runFig8(p Params) (*Report, error) {
	r := newReport("fig8", Title("fig8"))
	space := knobs.CPUSpace()

	sweeps := []struct {
		name  string
		base  workload.Workload
		rates []float64
	}{
		{"tpcc", workload.TPCC(200), []float64{1500, 1600, 1700, 1800, 1900, 2000, 2100, 2200}},
		{"sysbench", workload.Sysbench(10), []float64{16000, 17000, 18000, 19000, 20000, 21000, 22000, 23000}},
	}
	// Per sweep: one session at the middle rate, which yields the
	// transferred knobs, then one per rate.
	var rows []row
	for si, sweep := range sweeps {
		midW := sweep.base.WithRequestRate(sweep.rates[len(sweep.rates)/2])
		rows = append(rows, scratchRow(p, sweep.name+"/mid", midW, "A", p.Seed+int64(si)))
		for ri, rate := range sweep.rates {
			rows = append(rows, scratchRow(p, fmt.Sprintf("%s/%g", sweep.name, rate), sweep.base.WithRequestRate(rate), "A", p.Seed+int64(100*si+ri)))
		}
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	for si, sweep := range sweeps {
		r.Addf("%s:", sweep.name)
		r.Addf("%-12s %14s %16s %18s", "Rate(txn/s)", "DefaultCPU%", "TunedCPU%", "TransferredCPU%")
		var defs, tuned, transferred []float64
		mid, perRate := out[0], out[1:len(sweep.rates)+1]
		out = out[len(sweep.rates)+1:]
		var transferNative []float64
		if best, ok := mid.last.BestFeasible(); ok {
			transferNative = space.Denormalize(best.Theta)
		} else {
			transferNative = dbsim.DefaultNative(space, dbsim.Instance("A"))
		}
		for ri, rate := range sweep.rates {
			def, best := defaultAndBest(perRate[ri].last)
			seed := p.Seed + int64(100*si+ri)
			sim := dbsim.New(dbsim.Instance("A"), sweep.base.WithRequestRate(rate).Profile, seed+7, halfRAM)
			trans := sim.EvalNoiseless(space, transferNative).CPUUtilPct
			r.Addf("%-12.0f %14.1f %16.1f %18.1f", rate, def, best, trans)
			defs = append(defs, def)
			tuned = append(tuned, best)
			transferred = append(transferred, trans)
		}
		r.AddSeries(sweep.name+"/default", defs)
		r.AddSeries(sweep.name+"/tuned", tuned)
		r.AddSeries(sweep.name+"/transferred", transferred)
		r.Addf("")
	}
	r.Addf("Expected shape (paper 7.4.1): similar relative improvement across rates,")
	r.Addf("and knobs tuned at one rate transfer to the others with near-tuned CPU.")
	return r, nil
}

// runTable7 reproduces Table 7: TPC-C at 100..1000 warehouses, reporting
// data size, buffer-pool hit ratio, default CPU, best feasible CPU and the
// improvement.
func runTable7(p Params) (*Report, error) {
	r := newReport("table7", Title("table7"))
	warehouses := []int{100, 200, 500, 800, 1000}
	rows := make([]row, len(warehouses))
	for i, wh := range warehouses {
		rows[i] = scratchRow(p, fmt.Sprint(wh), workload.TPCC(wh), "A", p.Seed+int64(10*i))
	}
	out, err := runRows(rows)
	if err != nil {
		return nil, err
	}

	r.Addf("%-12s %10s %10s %13s %10s %13s", "#Warehouses", "Size(GB)", "HitRatio", "DefaultCPU%", "BestCPU%", "Improvement%")
	var hits, defs, bests []float64
	for i, wh := range warehouses {
		res := out[i].last
		def, best := defaultAndBest(res)
		hit := res.DefaultMeasurement.HitRatio
		sizeGB := float64(workload.TPCC(wh).Profile.DataBytes) / float64(1<<30)
		r.Addf("%-12d %10.2f %10.3f %13.2f %10.2f %13.2f",
			wh, sizeGB, hit, def, best, (def-best)/def*100)
		hits = append(hits, hit)
		defs = append(defs, def)
		bests = append(bests, best)
	}
	r.AddSeries("hit_ratio", hits)
	r.AddSeries("default_cpu", defs)
	r.AddSeries("best_cpu", bests)
	r.Addf("")
	r.Addf("Expected shape (paper 7.4.2): CPU drops substantially at every size; the")
	r.Addf("hit ratio declines with data size and the default CPU eventually falls as")
	r.Addf("the workload turns IO-bound.")
	return r, nil
}
