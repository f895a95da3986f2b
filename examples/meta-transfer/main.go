// Meta-transfer: the paper's central claim, end to end. Tuning histories
// from related workloads (Twitter variants with higher INSERT ratios) are
// collected into a data repository; a new tuning task on the real Twitter
// workload is then boosted by the meta-learner and compared against
// learning from scratch.
//
//	go run ./examples/meta-transfer
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/restune"
)

const (
	historyIters = 30
	targetIters  = 15
	seed         = 7
)

func main() {
	space := restune.MySQLKnobs().Subset(
		"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth")

	// The workload characterizer embeds each workload's SQL stream as a
	// meta-feature (TF-IDF over reserved words -> random-forest cost
	// classifier -> mean class distribution).
	ch, err := restune.NewCharacterizer(restune.Workloads(), seed)
	if err != nil {
		log.Fatal(err)
	}

	// --- Phase 1: collect history. Past tuning tasks on two variants of
	// the target workload (W1 is similar, W5 much more write-heavy).
	fmt.Println("phase 1: collecting tuning history from Twitter variants W1 and W5 ...")
	repo := restune.NewRepository()
	for _, variant := range []int{1, 5} {
		w := restune.TwitterVariant(variant)
		sim := restune.NewSimulator(restune.Instance("A"), w.Profile, seed+int64(variant),
			restune.WithHalfRAMBufferPool())
		ev := restune.NewEvaluator(sim, space, restune.CPU)
		res, err := restune.New(restune.DefaultConfig(seed+int64(variant))).Run(ev, historyIters)
		if err != nil {
			log.Fatal(err)
		}
		mf := ch.MetaFeature(w, 3000, rand.New(rand.NewSource(seed+int64(variant))))
		repo.Add(restune.TaskFromResult(w.Name, w.Name, "A", mf, space, res))
		fmt.Printf("  %s: %d observations, best feasible CPU %.1f%%\n",
			w.Name, len(res.Iterations), mustBest(res))
	}

	// --- Phase 2: tune the real target with and without the history.
	target := restune.Twitter()
	targetMF := ch.MetaFeature(target, 3000, rand.New(rand.NewSource(seed)))
	newEv := func(s int64) restune.Evaluator {
		sim := restune.NewSimulator(restune.Instance("A"), target.Profile, s,
			restune.WithHalfRAMBufferPool())
		return restune.NewEvaluator(sim, space, restune.CPU)
	}

	corpus, err := repo.Corpus(space, seed, nil, restune.CorpusOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cfgMeta := restune.DefaultConfig(seed)
	cfgMeta.Corpus = corpus
	cfgMeta.TargetMetaFeature = targetMF

	fmt.Printf("\nphase 2: tuning %s with a budget of %d iterations\n", target.Name, targetIters)
	metaRes, err := restune.New(cfgMeta).Run(newEv(seed), targetIters)
	if err != nil {
		log.Fatal(err)
	}
	scratchRes, err := restune.New(restune.DefaultConfig(seed)).Run(newEv(seed), targetIters)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-22s %14s %12s\n", "method", "best CPU (%)", "improve (%)")
	for _, r := range []*restune.Result{metaRes, scratchRes} {
		fmt.Printf("%-22s %14.1f %12.1f\n", r.Method, mustBest(r), r.ImprovementPct())
	}

	fmt.Println("\nbest-feasible CPU by iteration (meta-boosted vs scratch):")
	m, s := metaRes.BestFeasibleSeries(), scratchRes.BestFeasibleSeries()
	for i := range m {
		fmt.Printf("  iter %2d: ResTune %6.1f%%   w/o-ML %6.1f%%\n", i, m[i], s[i])
	}
	fmt.Println("\nthe meta-boosted run exploits W1's similar response surface and finds")
	fmt.Println("a strong configuration within the first few iterations (paper Section 7.3).")
}

func mustBest(r *restune.Result) float64 {
	best, ok := r.BestFeasible()
	if !ok {
		return r.Iterations[0].Observation.Res
	}
	return best.Res
}
