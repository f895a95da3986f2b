// SLA-aware memory tuning: shrink the DBMS memory footprint (buffer pool,
// per-connection buffers, log buffer) on a 64GB instance while the SLA
// derived from the default configuration keeps holding — and contrast it
// with iTuned, which minimizes the resource without constraints and is
// willing to wreck throughput to get there (paper Sections 7.1 and 7.5.2).
//
//	go run ./examples/sla-aware-memory
package main

import (
	"fmt"
	"log"

	"repro/restune"
)

func main() {
	w := restune.Sysbench(30) // 30GB of data
	newEv := func(seed int64) restune.Evaluator {
		sim := restune.NewSimulator(restune.Instance("E"), w.Profile, seed)
		return restune.NewEvaluator(sim, restune.MemoryKnobs(), restune.Memory)
	}

	fmt.Printf("minimizing DBMS memory for %s on instance E (32 cores, 64GB RAM)\n", w.Name)
	fmt.Printf("tuned knobs: ")
	for i, k := range restune.MemoryKnobs().Knobs() {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(k.Name)
	}
	fmt.Println()

	restuneRes, err := restune.New(restune.DefaultConfig(11)).Run(newEv(11), 50)
	if err != nil {
		log.Fatal(err)
	}
	itunedRes, err := restune.ITuned(restune.DefaultConfig(11)).Run(newEv(12), 50)
	if err != nil {
		log.Fatal(err)
	}

	def := restuneRes.Iterations[0].Observation
	fmt.Printf("\ndefault: %.2f GB memory, %.0f txn/s, p99 %.1f ms\n",
		def.Res/1e9, def.Tps, def.Lat)
	fmt.Printf("SLA: throughput >= %.0f txn/s, p99 latency <= %.1f ms\n\n",
		restuneRes.SLA.LambdaTps, restuneRes.SLA.LambdaLat)

	best, ok := restuneRes.BestFeasible()
	if !ok {
		log.Fatal("ResTune found no feasible configuration")
	}
	space := restune.MemoryKnobs()
	fmt.Printf("ResTune best feasible: %.2f GB (-%.1f%%), tps %.0f, p99 %.1f ms — SLA held\n",
		best.Res/1e9, restuneRes.ImprovementPct(), best.Tps, best.Lat)
	fmt.Printf("  %s\n\n", space.Describe(space.Denormalize(best.Theta)))

	// iTuned's lowest-memory pick, feasible or not.
	lowest := itunedRes.Iterations[0]
	for _, it := range itunedRes.Iterations {
		if it.Observation.Res < lowest.Observation.Res {
			lowest = it
		}
	}
	verdict := "violates the SLA"
	if lowest.Feasible {
		verdict = "happens to satisfy the SLA"
	}
	fmt.Printf("iTuned lowest-memory pick: %.2f GB, tps %.0f, p99 %.1f ms — %s\n",
		lowest.Observation.Res/1e9, lowest.Observation.Tps, lowest.Observation.Lat, verdict)
	fmt.Println("\nunconstrained minimization drives the buffer pool toward its floor;")
	fmt.Println("ResTune's constrained acquisition (CEI) only credits configurations that")
	fmt.Println("are predicted to keep throughput and latency at default-config levels.")
}
