// Command restune-bench regenerates the paper's tables and figures from
// this reproduction. Each experiment id matches the paper artifact (fig1,
// fig3-fig9, table3-table9); -all runs the whole evaluation section.
//
// Examples:
//
//	restune-bench -list
//	restune-bench -id fig3
//	restune-bench -id table4 -full
//	restune-bench -all -iters 40 > results.txt
//	restune-bench -timeline diurnal -iters 48
//	restune-bench -timeline sched.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/restune"
)

func main() {
	var (
		id        = flag.String("id", "", "experiment id (see -list)")
		all       = flag.Bool("all", false, "run every experiment")
		list      = flag.Bool("list", false, "list experiment ids")
		full      = flag.Bool("full", false, "use the paper's full protocol (200 iterations, 3 runs, 34-task repository)")
		iters     = flag.Int("iters", 0, "override tuning iterations per session")
		seed      = flag.Int64("seed", 1, "random seed")
		csvDir    = flag.String("csv", "", "also write each experiment's numeric series as CSV into this directory")
		tracePath = flag.String("trace", "", "write a JSONL telemetry trace of every tuning session to this file")
		debugAddr = flag.String("debug-addr", "", "serve expvar/metrics/pprof on this address (e.g. localhost:6060) while experiments run")
		timeline  = flag.String("timeline", "", "run the simulated-day drift comparison (drift-aware vs stationary tuning) over this timeline: a profile name ("+strings.Join(restune.TimelineProfileNames(), ", ")+"), \"all\", or a CSV load file of offset_seconds,rate_mult[,write_boost] rows")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "restune-bench: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *iters < 0 {
		fmt.Fprintf(os.Stderr, "restune-bench: -iters must not be negative (got %d)\n", *iters)
		os.Exit(2)
	}
	if *all && *id != "" {
		fmt.Fprintln(os.Stderr, "restune-bench: -all and -id are mutually exclusive")
		os.Exit(2)
	}
	if *timeline != "" && (*all || *id != "") {
		fmt.Fprintln(os.Stderr, "restune-bench: -timeline is mutually exclusive with -id/-all")
		os.Exit(2)
	}
	if *timeline != "" && *csvDir != "" {
		fmt.Fprintln(os.Stderr, "restune-bench: -csv does not apply to -timeline, which writes no series")
		os.Exit(2)
	}

	if *list {
		for _, eid := range restune.ExperimentIDs() {
			fmt.Printf("%-8s %s\n", eid, restune.ExperimentTitle(eid))
		}
		return
	}

	p := restune.QuickExperimentParams()
	if *full {
		p = restune.FullExperimentParams()
	}
	p.Seed = *seed
	if *iters > 0 {
		p.Iters = *iters
	}

	// Telemetry: every session in every experiment feeds the same recorder,
	// so the debug endpoint and trace aggregate across the run.
	var trace *restune.TraceRecorder
	if *tracePath != "" {
		t, err := restune.NewTraceFile(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "restune-bench:", err)
			os.Exit(1)
		}
		trace = t
	} else if *debugAddr != "" {
		trace = restune.NewTraceRecorder(io.Discard)
	}
	if trace != nil {
		p.Recorder = trace
	}
	// die closes the trace (flushing what was recorded so far) before
	// exiting, so a failed run still leaves a usable artifact.
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "restune-bench: "+format+"\n", args...)
		if trace != nil {
			trace.Close()
		}
		os.Exit(1)
	}
	if *debugAddr != "" {
		bound, shutdown, err := restune.ServeDebug(*debugAddr, trace)
		if err != nil {
			die("starting debug server: %v", err)
		}
		defer shutdown()
		fmt.Printf("debug endpoint: http://%s/debug/vars (metrics at /debug/metrics, pprof at /debug/pprof/)\n", bound)
	}

	if *timeline != "" {
		start := time.Now()
		if err := runTimeline(*timeline, p); err != nil {
			die("-timeline %s: %v", *timeline, err)
		}
		fmt.Printf("(simulated day completed in %s)\n", time.Since(start).Round(time.Millisecond))
		if trace != nil {
			if err := trace.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "restune-bench: writing trace %s: %v\n", *tracePath, err)
				os.Exit(1)
			}
		}
		return
	}

	ids := []string{*id}
	if *all {
		ids = restune.ExperimentIDs()
	} else if *id == "" {
		fmt.Fprintln(os.Stderr, "restune-bench: pass -id <experiment>, -all, -list or -timeline")
		os.Exit(2)
	}

	for _, eid := range ids {
		start := time.Now()
		rep, err := restune.RunExperiment(eid, p)
		if err != nil {
			die("%s: %v", eid, err)
		}
		fmt.Print(rep.String())
		if *csvDir != "" {
			path, err := writeCSV(*csvDir, rep)
			if err != nil {
				die("writing CSV: %v", err)
			}
			fmt.Printf("(series written to %s)\n", path)
		}
		fmt.Printf("(%s completed in %s)\n\n", eid, time.Since(start).Round(time.Millisecond))
	}
	if trace != nil {
		if err := trace.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "restune-bench: writing trace %s: %v\n", *tracePath, err)
			os.Exit(1)
		}
	}
}

// runTimeline runs the -timeline simulated-day comparison — the drift
// experiment's table over the selected timelines — and prints its report.
// arg is a built-in profile name, "all" for every profile, or the path of a
// CSV load file (offset_seconds,rate_mult[,write_boost] rows).
func runTimeline(arg string, p restune.ExperimentParams) error {
	profiles := restune.TimelineProfileNames()
	names := []string{arg}
	if arg == "all" {
		names = profiles
	}
	var days []restune.Day
	for _, name := range names {
		tl, err := restune.TimelineProfile(name)
		if err != nil {
			f, err := os.Open(name)
			if err != nil {
				return fmt.Errorf("not a built-in profile (%s, all) and unreadable as a CSV load file: %v", strings.Join(profiles, ", "), err)
			}
			tl, err = restune.TimelineFromCSV(f)
			f.Close()
			if err != nil {
				return err
			}
			name = filepath.Base(name)
		}
		days = append(days, restune.Day{Name: name, Timeline: tl})
	}
	rep, err := restune.RunDays(p, days)
	if err != nil {
		return err
	}
	fmt.Print(rep.String())
	return nil
}

// writeCSV dumps an experiment's series, one row per series, as
// name,v0,v1,... — the format is deliberately trivial to plot.
func writeCSV(dir string, rep *restune.ExperimentReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	names := make([]string, 0, len(rep.Series))
	for name := range rep.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(strings.ReplaceAll(name, ",", ";"))
		for _, v := range rep.Series[name] {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, rep.ID+".csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
