package restune_test

import (
	"strings"
	"testing"

	"repro/restune"
)

// TestQuickstartFlow exercises the documented happy path end to end through
// the public API only.
func TestQuickstartFlow(t *testing.T) {
	w := restune.Twitter()
	sim := restune.NewSimulator(restune.Instance("A"), w.Profile, 1, restune.WithHalfRAMBufferPool())
	space := restune.MySQLKnobs().Subset(
		"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth")
	ev := restune.NewEvaluator(sim, space, restune.CPU)

	cfg := restune.DefaultConfig(1)
	result, err := restune.New(cfg).Run(ev, 20)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := result.BestFeasible()
	if !ok {
		t.Fatal("no feasible configuration")
	}
	if best.Res >= result.Iterations[0].Observation.Res {
		t.Fatal("tuning should improve on default")
	}
}

func TestPublicCataloguesAndWorkloads(t *testing.T) {
	if restune.CPUKnobs().Dim() != 14 || restune.MemoryKnobs().Dim() != 6 || restune.IOKnobs().Dim() != 20 {
		t.Fatal("knob space sizes")
	}
	if len(restune.Workloads()) != 5 {
		t.Fatal("five workloads")
	}
	if len(restune.Instances()) != 6 {
		t.Fatal("six instances")
	}
	if restune.TwitterVariant(3).Name != "twitter-w3" {
		t.Fatal("variant name")
	}
	if restune.Sysbench(10).Profile.Threads != 64 || restune.TPCC(200).Profile.Threads != 56 {
		t.Fatal("workload profiles")
	}
	if restune.Hotel().Profile.Threads != 256 || restune.Sales().Profile.Threads != 256 {
		t.Fatal("production workload profiles")
	}
}

func TestPublicBaselines(t *testing.T) {
	cfg := restune.DefaultConfig(1)
	names := map[string]restune.Tuner{
		"Default":         restune.Default(cfg),
		"iTuned":          restune.ITuned(cfg),
		"OtterTune-w-Con": restune.OtterTuneWithConstraints(cfg, nil),
		"CDBTune-w-Con":   restune.CDBTuneWithConstraints(cfg),
		"GridSearch":      restune.GridSearch(cfg, 4),
	}
	for want, tuner := range names {
		if tuner.Name() != want {
			t.Errorf("tuner name %q want %q", tuner.Name(), want)
		}
	}
}

func TestPublicRepositoryFlow(t *testing.T) {
	w := restune.TwitterVariant(1)
	sim := restune.NewSimulator(restune.Instance("A"), w.Profile, 2, restune.WithHalfRAMBufferPool())
	space := restune.MySQLKnobs().Subset(
		"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth")
	ev := restune.NewEvaluator(sim, space, restune.CPU)
	res, err := restune.New(restune.DefaultConfig(2)).Run(ev, 12)
	if err != nil {
		t.Fatal(err)
	}

	r := restune.NewRepository()
	r.Add(restune.TaskFromResult("t1", w.Name, "A", []float64{1, 0, 0, 0, 0}, space, res))
	corpus, err := r.Corpus(space, 1, nil, restune.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Len() != 1 {
		t.Fatal("base task count")
	}

	// Meta-boosted run through the public API.
	cfg := restune.DefaultConfig(3)
	cfg.Corpus = corpus
	cfg.TargetMetaFeature = []float64{1, 0, 0, 0, 0}
	target := restune.NewSimulator(restune.Instance("A"), restune.Twitter().Profile, 3, restune.WithHalfRAMBufferPool())
	res2, err := restune.New(cfg).Run(restune.NewEvaluator(target, space, restune.CPU), 12)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Method != "ResTune" {
		t.Fatal("meta-boosted method name")
	}
}

func TestPublicExperiments(t *testing.T) {
	ids := restune.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("experiment registry too small: %v", ids)
	}
	p := restune.QuickExperimentParams()
	p.Iters, p.RepoIters, p.RepoWorkloadLimit = 6, 6, 2
	rep, err := restune.RunExperiment("fig1", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) == 0 || restune.ExperimentTitle("fig1") == "" {
		t.Fatal("report empty")
	}
	full := restune.FullExperimentParams()
	if full.Iters != 200 || full.Runs != 3 {
		t.Fatal("full protocol should match the paper")
	}
}

// TestNamedWorkloadsAndResources resolves every name the command-line tools
// list, in any case, to a distinct workload, resource or instance type, and
// rejects an unknown one.
func TestNamedWorkloadsAndResources(t *testing.T) {
	seen := map[string]string{}
	for _, name := range restune.WorkloadNames() {
		w, err := restune.WorkloadByName(strings.ToUpper(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[w.Name]; dup {
			t.Fatalf("%s and %s both name workload %s", prev, name, w.Name)
		}
		seen[w.Name] = name
	}
	if _, err := restune.WorkloadByName("nope"); err == nil {
		t.Fatal("an unknown workload resolved")
	}
	want := []restune.Resource{restune.CPU, restune.IOBandwidth, restune.IOOperations, restune.Memory}
	names := restune.ResourceNames()
	if len(names) != len(want) {
		t.Fatalf("resource names %v, want one per resource of %v", names, want)
	}
	for i, name := range append(names, "bps", "MEM") {
		res, err := restune.ResourceByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i < len(want) && res != want[i] {
			t.Fatalf("%s resolves to %v, want %v", name, res, want[i])
		}
	}
	if _, err := restune.ResourceByName("nope"); err == nil {
		t.Fatal("an unknown resource resolved")
	}
	for name := range restune.Instances() {
		hw, err := restune.InstanceByName(strings.ToLower(name))
		if err != nil || hw.Name != name {
			t.Fatalf("%s resolves to %+v, %v", name, hw, err)
		}
	}
	if _, err := restune.InstanceByName("nope"); err == nil {
		t.Fatal("an unknown instance resolved")
	}
}
