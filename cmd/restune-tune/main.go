// Command restune-tune runs one resource-oriented tuning session: it picks
// a workload and instance type, measures the DBA default to fix the SLA,
// and tunes the selected knob space with ResTune (optionally meta-boosted
// by a repository built with restune-repo) or any baseline method.
//
// Examples:
//
//	restune-tune -workload twitter -instance A -resource cpu -iters 50
//	restune-tune -workload tpcc -resource iops -knobs io -method ituned
//	restune-tune -workload sysbench -repo repo.json -method restune
//	restune-tune -workload twitter -repo repo.json -shortlist 16
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/restune"
)

func main() {
	var (
		workloadName = flag.String("workload", "sysbench", "workload: "+strings.Join(restune.WorkloadNames(), ", "))
		instance     = flag.String("instance", "A", "instance type A-F (paper Table 1)")
		resource     = flag.String("resource", "cpu", "resource to minimize: "+strings.Join(restune.ResourceNames(), ", "))
		knobSet      = flag.String("knobs", "", "knob space: cpu (14), memory (6), io (20), case-study (3); default follows -resource")
		method       = flag.String("method", "restune", "method: restune, ituned, ottertune, cdbtune, grid, default")
		iters        = flag.Int("iters", 50, "tuning iterations")
		seed         = flag.Int64("seed", 1, "random seed")
		repoPath     = flag.String("repo", "", "repository JSON for meta-learning (restune only)")
		shortlist    = flag.Int("shortlist", 0, "with -repo: on a corpus too large to weight every base task, shortlist the top-K per iteration (0 = default K)")
		converge     = flag.Bool("converge", false, "stop early under the paper's 0.5%/10-iteration convergence rule")
		verbose      = flag.Bool("v", false, "print every iteration")
		engine       = flag.Bool("engine", false, "measure against the real minidb storage engine instead of the simulator (slower, real I/O; engine-relevant knobs only)")
		tracePath    = flag.String("trace", "", "write a JSONL telemetry trace of the session to this file")
		debugAddr    = flag.String("debug-addr", "", "serve expvar/metrics/pprof on this address (e.g. localhost:6060) for the duration of the run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "restune-tune: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *iters <= 0 {
		fmt.Fprintf(os.Stderr, "restune-tune: -iters must be positive (got %d)\n", *iters)
		os.Exit(2)
	}
	if *shortlist < 0 {
		fmt.Fprintf(os.Stderr, "restune-tune: -shortlist must not be negative (got %d)\n", *shortlist)
		os.Exit(2)
	}
	if err := run(*workloadName, *instance, *resource, *knobSet, *method, *iters, *shortlist, *seed, *repoPath, *tracePath, *debugAddr, *converge, *verbose, *engine); err != nil {
		fmt.Fprintln(os.Stderr, "restune-tune:", err)
		os.Exit(1)
	}
}

func run(workloadName, instance, resource, knobSet, method string, iters, shortlist int, seed int64, repoPath, tracePath, debugAddr string, converge, verbose, engine bool) (retErr error) {
	w, err := restune.WorkloadByName(workloadName)
	if err != nil {
		return err
	}
	res, err := restune.ResourceByName(resource)
	if err != nil {
		return err
	}
	space, err := pickSpace(knobSet, res)
	if err != nil {
		return err
	}

	// Telemetry: a live JSONL recorder when -trace or -debug-addr asks for
	// one, the no-op recorder otherwise. Decisions never depend on it.
	rec := restune.NopRecorder()
	var trace *restune.TraceRecorder
	if tracePath != "" {
		trace, err = restune.NewTraceFile(tracePath)
		if err != nil {
			return err
		}
		rec = trace
	} else if debugAddr != "" {
		trace = restune.NewTraceRecorder(io.Discard)
		rec = trace
	}
	if trace != nil {
		// A trace that silently lost events is worse than no trace: surface
		// any sink error as the command's own failure.
		defer func() {
			if err := trace.Close(); err != nil && retErr == nil {
				retErr = fmt.Errorf("writing trace %s: %w", tracePath, err)
			}
		}()
	}
	if debugAddr != "" {
		bound, shutdown, err := restune.ServeDebug(debugAddr, trace)
		if err != nil {
			return fmt.Errorf("starting debug server: %w", err)
		}
		defer shutdown()
		fmt.Printf("debug endpoint: http://%s/debug/vars (metrics at /debug/metrics, pprof at /debug/pprof/)\n", bound)
	}

	var ev restune.Evaluator
	if engine {
		// Real engine: scale the workload to desk size and restrict to the
		// knobs minidb implements.
		space = restune.RealEngineKnobs()
		dir, err := os.MkdirTemp("", "restune-engine")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		eng := restune.NewEngineEvaluator(dir, space, res, w.WithRequestRate(1200), seed)
		eng.Rows = 1500
		eng.Recorder = rec
		ev = eng
		fmt.Println("engine mode: measurements come from real replays against minidb")
	} else {
		var opts []restune.SimulatorOption
		if res == restune.CPU || res == restune.IOBandwidth || res == restune.IOOperations {
			opts = append(opts, restune.WithHalfRAMBufferPool())
		}
		sim := restune.NewSimulator(restune.Instance(instance), w.Profile, seed, opts...)
		ev = restune.NewEvaluator(sim, space, res)
	}

	// Every method runs the same session loop from this one configuration,
	// so -engine, -converge and -trace reach each of them alike.
	cfg := restune.DefaultConfig(seed)
	cfg.Recorder = rec
	if converge {
		cfg.ConvergenceWindow = 10
	}
	if engine {
		// Real measurements at short windows are noisy; widen the SLA
		// tolerance and shorten initialization accordingly.
		cfg.SLATolerance = 0.30
		cfg.InitIters = 6
	}
	tuner, cleanup, err := pickTuner(method, cfg, shortlist, repoPath, space, w, rec)
	if err != nil {
		return err
	}
	if cleanup != nil {
		defer cleanup()
	}

	fmt.Printf("tuning %s on instance %s: minimize %s over %d knobs with %s (%d iterations)\n",
		w.Name, instance, res, space.Dim(), tuner.Name(), iters)
	result, err := tuner.Run(ev, iters)
	if err != nil {
		return err
	}

	def := result.Iterations[0]
	fmt.Printf("\nSLA from default config: throughput >= %.0f txn/s, p99 latency <= %.1f ms\n",
		result.SLA.LambdaTps, result.SLA.LambdaLat)
	fmt.Printf("default %s: %s\n", res, fmtRes(res, def.Observation.Res))

	if verbose {
		for _, it := range result.Iterations[1:] {
			feas := " "
			if it.Feasible {
				feas = "*"
			}
			fmt.Printf("  iter %3d [%-7s]%s res=%-12s tps=%-8.0f lat=%.1fms\n",
				it.Index, it.Phase, feas, fmtRes(res, it.Observation.Res),
				it.Observation.Tps, it.Observation.Lat)
		}
	}

	best, ok := result.BestFeasible()
	if !ok {
		fmt.Println("\nno feasible configuration found beyond the default")
		return nil
	}
	fmt.Printf("\nbest feasible %s: %s (%.1f%% below default, found at iteration %d%s)\n",
		res, fmtRes(res, best.Res), result.ImprovementPct(), result.IterationsToBest(),
		map[bool]string{true: ", converged", false: ""}[result.Converged])
	fmt.Printf("configuration: %s\n", space.Describe(space.Denormalize(best.Theta)))
	fmt.Printf("at that point: throughput %.0f txn/s, p99 latency %.1f ms (SLA held)\n", best.Tps, best.Lat)
	return nil
}

func pickSpace(name string, res restune.Resource) (*restune.Space, error) {
	if name == "" {
		switch res {
		case restune.Memory:
			return restune.MemoryKnobs(), nil
		case restune.IOBandwidth, restune.IOOperations:
			return restune.IOKnobs(), nil
		default:
			return restune.CPUKnobs(), nil
		}
	}
	switch strings.ToLower(name) {
	case "cpu":
		return restune.CPUKnobs(), nil
	case "memory", "mem":
		return restune.MemoryKnobs(), nil
	case "io":
		return restune.IOKnobs(), nil
	case "case-study":
		return restune.MySQLKnobs().Subset(
			"innodb_thread_concurrency", "innodb_spin_wait_delay", "innodb_lru_scan_depth"), nil
	}
	return nil, fmt.Errorf("unknown knob set %q", name)
}

// pickTuner builds the selected method from the session configuration.
// The returned cleanup (possibly nil) must be deferred past the session:
// the lazily-opened repository file backs on-demand history reads for the
// whole run.
func pickTuner(method string, cfg restune.Config, shortlist int, repoPath string, space *restune.Space, w restune.Workload, rec restune.Recorder) (restune.Tuner, func() error, error) {
	switch strings.ToLower(method) {
	case "restune":
		var cleanup func() error
		if repoPath != "" {
			ch, err := restune.NewCharacterizer(restune.Workloads(), cfg.Seed)
			if err != nil {
				return nil, nil, err
			}
			cfg.TargetMetaFeature = ch.MetaFeature(w, 3000, rngFor(cfg.Seed))
			lazy, err := restune.OpenLazyRepository(repoPath)
			if err != nil {
				return nil, nil, err
			}
			corpus, err := lazy.Corpus(space, cfg.Seed, nil,
				restune.CorpusOptions{ShortlistK: shortlist, Recorder: rec})
			if err != nil {
				lazy.Close()
				return nil, nil, err
			}
			cfg.Corpus = corpus
			cleanup = lazy.Close
			fmt.Printf("opened %s: %d of %d tasks match the knob space\n",
				repoPath, corpus.Len(), lazy.Len())
		}
		return restune.New(cfg), cleanup, nil
	case "ituned":
		return restune.ITuned(cfg), nil, nil
	case "ottertune":
		var tasks []restune.TaskRecord
		if repoPath != "" {
			r, err := restune.LoadRepository(repoPath)
			if err != nil {
				return nil, nil, err
			}
			tasks = r.Tasks
		}
		return restune.OtterTuneWithConstraints(cfg, tasks), nil, nil
	case "cdbtune":
		return restune.CDBTuneWithConstraints(cfg), nil, nil
	case "grid":
		return restune.GridSearch(cfg, 8), nil, nil
	case "default":
		return restune.Default(cfg), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown method %q", method)
}

func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func fmtRes(res restune.Resource, v float64) string {
	switch res {
	case restune.CPU:
		return fmt.Sprintf("%.1f%%", v)
	case restune.IOBandwidth:
		return fmt.Sprintf("%.1fMB/s", v/1e6)
	case restune.IOOperations:
		return fmt.Sprintf("%.0fop/s", v)
	case restune.Memory:
		return fmt.Sprintf("%.2fGB", v/1e9)
	}
	return fmt.Sprintf("%v", v)
}
