// Command restune-server runs a fleet of concurrent tuning sessions over a
// bounded worker pool — the process shape of ResTune's cloud deployment,
// where one tuning service drives many database instances at once. All
// sessions share one copy-on-write meta-corpus: base-task surrogate fits are
// computed once (single-flight) and reused by every session, so N sessions
// over similar workloads pay ~1 fit per base task instead of N.
//
// Telemetry is the dashboard: -trace-dir writes one JSONL stream per session
// plus a fleet-level stream carrying the shared-fit cache counters, and
// -debug-addr serves live expvar/metrics/pprof for the duration of the run.
//
// Examples:
//
//	restune-server -sessions 8 -workers 4 -workload twitter,tpcc -iters 30
//	restune-server -sessions 4 -repo repo.json -shortlist 16 -trace-dir traces/
//	restune-server -sessions 2 -synthetic-corpus 12 -iters 5 -debug-addr localhost:6060
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/restune"
)

func main() {
	var (
		sessions  = flag.Int("sessions", 4, "number of concurrent tuning sessions")
		workers   = flag.Int("workers", 0, "worker-pool size bounding concurrent session steps (0 = GOMAXPROCS)")
		workloads = flag.String("workload", "twitter", "comma-separated workload list cycled across sessions: "+strings.Join(restune.WorkloadNames(), ", "))
		instance  = flag.String("instance", "A", "instance type A-F (paper Table 1)")
		resource  = flag.String("resource", "cpu", "resource to minimize: "+strings.Join(restune.ResourceNames(), ", "))
		iters     = flag.Int("iters", 30, "tuning iterations per session")
		seed      = flag.Int64("seed", 1, "base seed; session i runs at seed+i")
		repoPath  = flag.String("repo", "", "repository JSON backing the shared meta-corpus (opened lazily)")
		shortlist = flag.Int("shortlist", 0, "on a corpus too large to weight every base task, shortlist the top-K per session (0 = default K)")
		synthetic = flag.Int("synthetic-corpus", 0, "instead of -repo: share a synthetic corpus of this many base tasks")
		traceDir  = flag.String("trace-dir", "", "write one JSONL trace per session plus fleet.jsonl into this directory")
		debugAddr = flag.String("debug-addr", "", "serve expvar/metrics/pprof on this address (e.g. localhost:6060) for the duration of the run")
		verbose   = flag.Bool("v", false, "print per-session iteration counts as results land")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "restune-server: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *sessions <= 0 || *iters <= 0 {
		fmt.Fprintf(os.Stderr, "restune-server: -sessions and -iters must be positive\n")
		os.Exit(2)
	}
	if *shortlist < 0 || *synthetic < 0 || *workers < 0 {
		fmt.Fprintf(os.Stderr, "restune-server: -shortlist, -synthetic-corpus and -workers must not be negative\n")
		os.Exit(2)
	}
	if *repoPath != "" && *synthetic > 0 {
		fmt.Fprintf(os.Stderr, "restune-server: -repo and -synthetic-corpus are mutually exclusive\n")
		os.Exit(2)
	}
	hw, err := restune.InstanceByName(*instance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "restune-server:", err)
		os.Exit(2)
	}
	if err := run(*sessions, *workers, *iters, *shortlist, *synthetic, *seed,
		*workloads, hw, *resource, *repoPath, *traceDir, *debugAddr, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "restune-server:", err)
		os.Exit(1)
	}
}

func run(sessions, workers, iters, shortlist, synthetic int, seed int64,
	workloads string, hw restune.Hardware, resource, repoPath, traceDir, debugAddr string, verbose bool) (retErr error) {
	res, err := restune.ResourceByName(resource)
	if err != nil {
		return err
	}
	ws, err := pickWorkloads(workloads)
	if err != nil {
		return err
	}
	space := restune.CPUKnobs()
	if res == restune.Memory {
		space = restune.MemoryKnobs()
	} else if res == restune.IOBandwidth || res == restune.IOOperations {
		space = restune.IOKnobs()
	}

	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
	}

	// Fleet-level telemetry: scheduler gauges plus the shared-fit cache
	// counters land here; each session gets its own stream below.
	fleetRec := restune.NopRecorder()
	var fleetTrace *restune.TraceRecorder
	if traceDir != "" {
		fleetTrace, err = restune.NewTraceFile(filepath.Join(traceDir, "fleet.jsonl"))
		if err != nil {
			return err
		}
		fleetRec = fleetTrace
	} else if debugAddr != "" {
		fleetTrace = restune.NewTraceRecorder(io.Discard)
		fleetRec = fleetTrace
	}
	if fleetTrace != nil {
		defer func() {
			if err := fleetTrace.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("writing fleet trace: %w", err)
			}
		}()
	}
	if debugAddr != "" {
		bound, shutdown, err := restune.ServeDebug(debugAddr, fleetTrace)
		if err != nil {
			return fmt.Errorf("starting debug server: %w", err)
		}
		defer shutdown()
		fmt.Printf("debug endpoint: http://%s/debug/vars (metrics at /debug/metrics, pprof at /debug/pprof/)\n", bound)
	}

	// The shared copy-on-write corpus, when meta-learning is on.
	var shared *restune.SharedCorpus
	var targetMeta func(w restune.Workload, s int64) []float64
	switch {
	case repoPath != "":
		lazy, err := restune.OpenLazyRepository(repoPath)
		if err != nil {
			return err
		}
		defer lazy.Close()
		tasks, err := lazy.CorpusTasks(space, seed, nil)
		if err != nil {
			return err
		}
		shared = restune.NewSharedCorpus(tasks, fleetRec)
		ch, err := restune.NewCharacterizer(restune.Workloads(), seed)
		if err != nil {
			return err
		}
		targetMeta = func(w restune.Workload, s int64) []float64 {
			return ch.MetaFeature(w, 3000, rand.New(rand.NewSource(s)))
		}
		fmt.Printf("shared corpus: %d tasks from %s (lazy)\n", shared.Len(), repoPath)
	case synthetic > 0:
		const metaDim = 5
		tasks := restune.SyntheticCorpus(synthetic, metaDim, space.Dim(), 10, seed)
		shared = restune.NewSharedCorpus(tasks, fleetRec)
		targetMeta = func(w restune.Workload, _ int64) []float64 {
			return syntheticTarget(seed, w.Name, metaDim)
		}
		fmt.Printf("shared corpus: %d synthetic tasks\n", shared.Len())
	}

	specs := make([]restune.SessionSpec, sessions)
	recs := make([]*restune.TraceRecorder, sessions)
	for i := 0; i < sessions; i++ {
		w := ws[i%len(ws)]
		sSeed := seed + int64(i)
		name := fmt.Sprintf("s%02d-%s", i, w.Name)

		rec := restune.NopRecorder()
		if traceDir != "" {
			tr, err := restune.NewTraceFile(filepath.Join(traceDir, "session-"+name+".jsonl"))
			if err != nil {
				return err
			}
			recs[i] = tr
			rec = tr
		}

		cfg := restune.DefaultConfig(sSeed)
		cfg.Recorder = rec
		if shared != nil {
			cfg.TargetMetaFeature = targetMeta(w, sSeed)
			cfg.Corpus = shared.NewSession(restune.CorpusOptions{ShortlistK: shortlist, Recorder: rec})
		}

		var opts []restune.SimulatorOption
		if res == restune.CPU || res == restune.IOBandwidth || res == restune.IOOperations {
			opts = append(opts, restune.WithHalfRAMBufferPool())
		}
		sim := restune.NewSimulator(hw, w.Profile, sSeed, opts...)
		specs[i] = restune.SessionSpec{
			Name:      name,
			Config:    cfg,
			Evaluator: restune.NewEvaluator(sim, space, res),
			Iters:     iters,
		}
	}
	defer func() {
		for _, tr := range recs {
			if tr == nil {
				continue
			}
			if err := tr.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("writing session trace: %w", err)
			}
		}
	}()

	fleet := restune.NewFleet(restune.FleetConfig{Workers: workers, Recorder: fleetRec})
	fmt.Printf("fleet: %d sessions x %d iterations over %d workers, minimizing %s on instance %s\n",
		sessions, iters, fleet.Workers(), res, hw.Name)

	t0 := time.Now()
	results := fleet.Run(specs)
	elapsed := time.Since(t0)

	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			fmt.Printf("  %-24s FAILED: %v\n", r.Name, r.Err)
			continue
		}
		line := fmt.Sprintf("  %-24s %3d iters", r.Name, len(r.Result.Iterations)-1)
		if best, ok := r.Result.BestFeasible(); ok {
			line += fmt.Sprintf("  best %s %.4g (%.1f%% below default)",
				res, best.Res, r.Result.ImprovementPct())
		} else {
			line += "  no feasible config beyond default"
		}
		if r.Result.Converged {
			line += ", converged"
		}
		if verbose || r.Err != nil {
			fmt.Println(line)
		}
	}
	if !verbose {
		fmt.Printf("  %d/%d sessions completed\n", len(results)-failed, len(results))
	}

	fmt.Printf("fleet finished in %.2fs (%.2f sessions/sec)\n",
		elapsed.Seconds(), float64(sessions-failed)/elapsed.Seconds())
	if shared != nil {
		hits, misses := shared.Stats()
		fmt.Printf("shared-fit cache: %d hits / %d misses (%.1f%% hit rate)\n",
			hits, misses, 100*shared.HitRate())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", failed, len(results))
	}
	return nil
}

func pickWorkloads(list string) ([]restune.Workload, error) {
	var ws []restune.Workload
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w, err := restune.WorkloadByName(name)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("no workloads in %q", list)
	}
	return ws, nil
}

// syntheticTarget is the meta-feature every session of one workload tunes
// towards over a synthetic corpus: one unit-norm vector per workload, like
// the corpus's own tasks, so sessions of a workload shortlist the same
// neighbours and share their fits.
func syntheticTarget(seed int64, workload string, dim int) []float64 {
	r := rng.Derive(seed, "fleet-target:"+workload)
	mf := make([]float64, dim)
	norm := 0.0
	for d := range mf {
		mf[d] = r.Float64()
		norm += mf[d] * mf[d]
	}
	for d := range mf {
		mf[d] /= math.Sqrt(norm)
	}
	return mf
}
