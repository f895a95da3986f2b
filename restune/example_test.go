package restune_test

import (
	"fmt"
	"log"
	"math/rand"

	"repro/restune"
)

// Example runs the minimal resource-oriented tuning session: minimize CPU
// for the Twitter workload under the SLA captured from the DBA default.
func Example() {
	w := restune.Twitter()
	sim := restune.NewSimulator(restune.Instance("A"), w.Profile, 42,
		restune.WithHalfRAMBufferPool())
	ev := restune.NewEvaluator(sim, restune.CPUKnobs(), restune.CPU)

	result, err := restune.New(restune.DefaultConfig(42)).Run(ev, 30)
	if err != nil {
		log.Fatal(err)
	}
	if best, ok := result.BestFeasible(); ok {
		fmt.Printf("improved CPU with the SLA held: %v\n",
			best.Res < result.Iterations[0].Observation.Res)
	}
	// Output: improved CPU with the SLA held: true
}

// ExampleNew_metaBoosted shows meta-learning: histories from related tasks
// become base-learners that bootstrap a new session.
func ExampleNew_metaBoosted() {
	space := restune.MySQLKnobs().Subset(
		"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth")

	// A past tuning task on a related workload...
	past := restune.TwitterVariant(1)
	sim := restune.NewSimulator(restune.Instance("A"), past.Profile, 1,
		restune.WithHalfRAMBufferPool())
	history, err := restune.New(restune.DefaultConfig(1)).
		Run(restune.NewEvaluator(sim, space, restune.CPU), 15)
	if err != nil {
		log.Fatal(err)
	}

	// ...stored in the repository and served as a corpus of base tasks.
	repo := restune.NewRepository()
	ch, err := restune.NewCharacterizer(restune.Workloads(), 1)
	if err != nil {
		log.Fatal(err)
	}
	mf := ch.MetaFeature(past, 2000, rand.New(rand.NewSource(1)))
	repo.Add(restune.TaskFromResult(past.Name, past.Name, "A", mf, space, history))
	corpus, err := repo.Corpus(space, 1, nil, restune.CorpusOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// The new session starts from the transferred knowledge.
	cfg := restune.DefaultConfig(2)
	cfg.Corpus = corpus
	cfg.TargetMetaFeature = ch.MetaFeature(restune.Twitter(), 2000, rand.New(rand.NewSource(2)))
	tuner := restune.New(cfg)
	fmt.Println(tuner.Name())
	// Output: ResTune
}

// ExampleRunExperiment regenerates one of the paper's artifacts.
func ExampleRunExperiment() {
	p := restune.QuickExperimentParams()
	report, err := restune.RunExperiment("fig1", p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.ID, len(report.Series) > 0)
	// Output: fig1 true
}

// ExampleGridSearch runs the case study's exhaustive ground-truth search.
func ExampleGridSearch() {
	space := restune.MySQLKnobs().Subset(
		"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth")
	w := restune.Twitter()
	sim := restune.NewSimulator(restune.Instance("A"), w.Profile, 3,
		restune.WithHalfRAMBufferPool())
	ev := restune.NewEvaluator(sim, space, restune.CPU)

	res, err := restune.GridSearch(restune.DefaultConfig(3), 4).Run(ev, 0) // 4^3 = 64 evaluations
	if err != nil {
		log.Fatal(err)
	}
	best, _ := res.BestFeasible()
	fmt.Println(len(res.Iterations) == 65, best.Res < res.Iterations[0].Observation.Res)
	// Output: true true
}
