// Command benchmark is the repository's benchmark: six fixed workloads over
// the tuner and the minidb engine, end-to-end metrics measured with tracing
// off, and a traced run that attributes them to layers. See README.md.
//
//	benchmark -workload cbo-200 -seed 1 -seconds 12 -trace 0   one run, result on the last line
//	benchmark -seed 1 [-trace 1] [-runs N] [-out FILE]          every workload, N seeds each
//	benchmark -compare A.json B.json                            apply the bounds to two -out files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// resultLine is the last line of a single run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every -out file: two files compare only if
// these agree where it matters.
type environment struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Workers is the fleet's worker count and the engine drive's client
	// count; never more than nproc.
	Workers int `json:"workers"`
	// Storage is what the engine workloads' files are on: "tmpfs" (the
	// private mount run.sh makes over .bench_build/run) or "disk".
	Storage string `json:"engine_storage"`
}

// report is an -out file: every run of a suite, by workload.
type report struct {
	Env  environment            `json:"environment"`
	Runs map[string][]runResult `json:"runs"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the first run; run i of a suite uses seed+i")
		seconds  = flag.Float64("seconds", 12, "time budget of one run's timed region")
		trace    = flag.Int("trace", 0, "1 runs the workload traced and reports the per-layer metrics")
		workers  = flag.Int("workers", 0, "fleet workers and engine-drive clients; 0 and the maximum are nproc")
		runs     = flag.Int("runs", 1, "suite only: runs per workload")
		out      = flag.String("out", "", "suite only: write every run as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return usage("usage: benchmark -compare A.json B.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	switch {
	case flag.NArg() != 0:
		return usage("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	case *trace != 0 && *trace != 1:
		return usage("-trace takes 0 or 1")
	case *seconds <= 0 || *runs < 1:
		return usage("-seconds and -runs must be positive")
	case *workers < 0 || *workers > runtime.NumCPU():
		// More workers or clients than CPUs would measure the run queue.
		return usage("refusing -workers %d on %d CPUs", *workers, runtime.NumCPU())
	}
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	dir, storage := runDir()
	defer os.RemoveAll(dir)
	opt := runOptions{
		seed: *seed, seconds: *seconds, trace: *trace == 1, workers: *workers,
		sc: canonical(), dir: dir, traceDir: filepath.Join(".bench_build", "traces"),
	}

	if *workload != "all" {
		def, ok := findWorkload(*workload)
		if !ok {
			return usage("unknown workload %q; have %s", *workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runWorkload(def, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printRun(res)
		line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchmark: engine files on %s\n", storage)
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	rep := report{
		Env: environment{
			Commit: gitHead(), Seed: *seed, Seconds: *seconds, NumCPU: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Workers: *workers, Storage: storage,
		},
		Runs: map[string][]runResult{},
	}
	code := 0
	for _, def := range workloads {
		for i := 0; i < *runs; i++ {
			o := opt
			o.seed = *seed + int64(i)
			res, err := runWorkload(def, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			printRun(res)
			if !res.Correct {
				code = 1
			}
			rep.Runs[def.Name] = append(rep.Runs[def.Name], res)
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", *out, err)
			return 1
		}
	}
	return code
}

func usage(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	return 2
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runDir is where this process may write: a directory of its own under
// .bench_build/run in the checkout the benchmark is run from. run.sh mounts a
// private tmpfs there when it may; storage says whether it did, because
// engine timings on a tmpfs (where fsync costs nothing) and on a disk do not
// compare.
func runDir() (dir, storage string) {
	base := filepath.Join(".bench_build", "run")
	storage = "disk"
	var st syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	if err := syscall.Statfs(base, &st); err == nil && st.Type == tmpfsMagic {
		storage = "tmpfs"
	}
	return filepath.Join(base, fmt.Sprintf("pid-%d", os.Getpid())), storage
}

// gitHead reads the checked-out commit without starting a process; a
// checkout that is not a git repository reports "unknown".
func gitHead() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(s, "ref: ")
	if !isRef {
		return s
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// printRun prints one run for a reader: every metric by name with its unit,
// the sample count behind the percentiles, and the run's sizes.
func printRun(res runResult) {
	mode := "end-to-end, tracing off"
	if res.Traced {
		mode = "per-layer, traced"
	}
	fmt.Printf("== %s seed=%d (%s): %d units of %d latency samples, %d iterations attempted, %d failed, %.2f s timed, set-up median of %d\n",
		res.Workload, res.Seed, mode, res.Units, res.Samples/max(res.Units, 1), res.Attempted, res.Failed, res.WallS, res.SetupReps)
	sizes := make([]string, 0, len(res.Sizes))
	for _, k := range sortedKeys(res.Sizes) {
		sizes = append(sizes, fmt.Sprintf("%s=%d", k, res.Sizes[k]))
	}
	fmt.Printf("   sizes: %s\n   trace_hash: %s   sla_violations: %d (SLA met on %.1f%% of iterations after initialization)\n",
		strings.Join(sizes, " "), res.TraceHash, res.SLAViolations, res.SLAMetPct)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
	}
	if res.Traced {
		sort.Strings(names)
	}
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("   %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if res.TraceFile != "" {
		names := sortedKeys(res.SelfMs)
		sort.Slice(names, func(i, j int) bool { return res.SelfMs[names[i]] > res.SelfMs[names[j]] })
		fmt.Printf("   self time by span (ms):")
		for _, n := range names {
			fmt.Printf(" %s=%.0f", n, res.SelfMs[n])
		}
		fmt.Printf("\n   trace: %s\n", res.TraceFile)
	}
	if !res.Correct {
		fmt.Printf("   OUTPUT CHECK FAILED: %s\n", res.CheckErr)
	}
}
