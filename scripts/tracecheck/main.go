// Command tracecheck validates JSONL telemetry traces (the artifacts
// restune-tune/restune-bench write with -trace and restune-server writes
// into -trace-dir) against the DESIGN.md §8 schema, and with -summary
// prints a human-readable digest. It is the engine behind
// scripts/trace_summary.sh and the verify.sh smoke gate.
//
// With several traces — a fleet run's per-session streams plus fleet.jsonl —
// every file is validated and a fleet aggregation is printed: per-session
// iteration counts and the fleet-wide shared-fit cache totals.
//
// Drift-aware sessions are aggregated from their core.iteration span attrs:
// the digest and the fleet aggregation report how many iterations fired a
// drift event and the range the trust-region radius covered.
//
//	go run ./scripts/tracecheck trace.jsonl              # validate, exit 1 on violation
//	go run ./scripts/tracecheck -summary trace.jsonl     # validate + summarize
//	go run ./scripts/tracecheck traces/*.jsonl           # validate all + fleet aggregation
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// event mirrors obs.Event (kept separate so the schema check is an
// independent reading of the contract, not the producer's own struct).
type event struct {
	Type    string         `json:"t"`
	TS      string         `json:"ts"`
	Name    string         `json:"name"`
	DurUS   int64          `json:"dur_us"`
	Value   float64        `json:"v"`
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets []float64      `json:"buckets"`
	Counts  []uint64       `json:"counts"`
	Attrs   map[string]any `json:"attrs"`
}

type spanStat struct {
	n     int
	total int64 // microseconds
	max   int64
}

type histStat struct {
	count uint64
	sum   float64
}

// traceStats is one validated trace's digest.
type traceStats struct {
	path     string
	events   int
	spans    map[string]*spanStat
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]histStat

	// Drift/trust-region aggregation over core.iteration span attrs: how
	// many iterations fired a drift event, and the range the trust-region
	// radius covered (trustN counts iterations that carried a radius: those
	// whose candidate an active region clamped).
	driftEvents int
	trustN      int
	trustMin    float64
	trustMax    float64
}

func main() {
	summary := flag.Bool("summary", false, "print a digest of each trace after validating")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-summary] <trace.jsonl> [more.jsonl ...]")
		os.Exit(2)
	}
	if err := run(flag.Args(), *summary); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func run(paths []string, summary bool) error {
	stats := make([]*traceStats, 0, len(paths))
	for _, p := range paths {
		st, err := parse(p)
		if err != nil {
			return err
		}
		stats = append(stats, st)
	}
	for _, st := range stats {
		if summary {
			st.printDigest()
		} else {
			fmt.Printf("%s: %d events OK\n", st.path, st.events)
		}
	}
	if len(stats) > 1 {
		printFleetAggregation(stats)
	}
	return nil
}

func parse(path string) (*traceStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	st := &traceStats{
		path:     path,
		spans:    map[string]*spanStat{},
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]histStat{},
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			return nil, fmt.Errorf("%s:%d: empty line", path, line)
		}
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, line, err)
		}
		if e.Name == "" {
			return nil, fmt.Errorf("%s:%d: event has no name", path, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, e.TS); err != nil {
			return nil, fmt.Errorf("%s:%d: bad timestamp %q", path, line, e.TS)
		}
		switch e.Type {
		case "span":
			if e.DurUS < 0 {
				return nil, fmt.Errorf("%s:%d: span %s has negative duration", path, line, e.Name)
			}
			s := st.spans[e.Name]
			if s == nil {
				s = &spanStat{}
				st.spans[e.Name] = s
			}
			s.n++
			s.total += e.DurUS
			if e.DurUS > s.max {
				s.max = e.DurUS
			}
			if e.Name == "core.iteration" {
				if fired, ok := e.Attrs["drift_event"].(bool); ok && fired {
					st.driftEvents++
				}
				if r, ok := e.Attrs["trust_radius"].(float64); ok {
					if st.trustN == 0 || r < st.trustMin {
						st.trustMin = r
					}
					if st.trustN == 0 || r > st.trustMax {
						st.trustMax = r
					}
					st.trustN++
				}
			}
		case "counter":
			st.counters[e.Name] = e.Value
		case "gauge":
			st.gauges[e.Name] = e.Value
		case "hist":
			if len(e.Counts) != len(e.Buckets)+1 {
				return nil, fmt.Errorf("%s:%d: hist %s has %d counts for %d buckets (want buckets+1)",
					path, line, e.Name, len(e.Counts), len(e.Buckets))
			}
			var n uint64
			for _, c := range e.Counts {
				n += c
			}
			if n != e.Count {
				return nil, fmt.Errorf("%s:%d: hist %s bucket counts sum to %d, count says %d",
					path, line, e.Name, n, e.Count)
			}
			for i := 1; i < len(e.Buckets); i++ {
				if e.Buckets[i] <= e.Buckets[i-1] {
					return nil, fmt.Errorf("%s:%d: hist %s buckets not ascending", path, line, e.Name)
				}
			}
			st.hists[e.Name] = histStat{count: e.Count, sum: e.Sum}
		default:
			return nil, fmt.Errorf("%s:%d: unknown event type %q", path, line, e.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if line == 0 {
		return nil, fmt.Errorf("%s: trace is empty", path)
	}
	st.events = line
	return st, nil
}

func (st *traceStats) printDigest() {
	fmt.Printf("%s: %d events\n\n", st.path, st.events)
	if len(st.spans) > 0 {
		fmt.Printf("%-28s %8s %12s %12s %12s\n", "span", "n", "total_ms", "avg_ms", "max_ms")
		for _, name := range sorted(st.spans) {
			s := st.spans[name]
			fmt.Printf("%-28s %8d %12.3f %12.3f %12.3f\n", name, s.n,
				float64(s.total)/1e3, float64(s.total)/float64(s.n)/1e3, float64(s.max)/1e3)
		}
		fmt.Println()
	}
	if st.trustN > 0 || st.driftEvents > 0 {
		fmt.Printf("drift: %d events; trust radius [%.3f, %.3f] over %d iterations\n\n",
			st.driftEvents, st.trustMin, st.trustMax, st.trustN)
	}
	if len(st.counters) > 0 {
		fmt.Printf("%-40s %14s\n", "counter", "value")
		for _, name := range sorted(st.counters) {
			fmt.Printf("%-40s %14.0f\n", name, st.counters[name])
		}
		fmt.Println()
	}
	if len(st.gauges) > 0 {
		fmt.Printf("%-40s %14s\n", "gauge", "value")
		for _, name := range sorted(st.gauges) {
			fmt.Printf("%-40s %14.4g\n", name, st.gauges[name])
		}
		fmt.Println()
	}
	if len(st.hists) > 0 {
		fmt.Printf("%-32s %10s %14s %12s\n", "histogram", "count", "sum", "mean")
		for _, name := range sorted(st.hists) {
			h := st.hists[name]
			mean := 0.0
			if h.count > 0 {
				mean = h.sum / float64(h.count)
			}
			fmt.Printf("%-32s %10d %14.1f %12.2f\n", name, h.count, h.sum, mean)
		}
		fmt.Println()
	}
}

// printFleetAggregation summarizes a multi-session fleet run: per-session
// iteration counts from each stream's core.iteration spans, and the
// fleet-wide shared-fit cache totals from whichever stream carries the
// meta.shared_fit_* counters (restune-server's fleet.jsonl).
func printFleetAggregation(stats []*traceStats) {
	fmt.Printf("\nfleet aggregation over %d traces:\n", len(stats))
	fmt.Printf("  %-36s %10s %10s %12s\n", "trace", "iters", "events", "corpus_fits")
	totalIters, totalEvents := 0, 0
	var hits, misses, localFits float64
	for _, st := range stats {
		iters := 0
		if s := st.spans["core.iteration"]; s != nil {
			iters = s.n
		}
		fits := st.counters["meta.corpus_fits"]
		localFits += fits
		hits += st.counters["meta.shared_fit_hits"]
		misses += st.counters["meta.shared_fit_misses"]
		totalIters += iters
		totalEvents += st.events
		fmt.Printf("  %-36s %10d %10d %12.0f\n", filepath.Base(st.path), iters, st.events, fits)
	}
	fmt.Printf("  fleet totals: %d iterations, %d events, %.0f session-local materializations\n",
		totalIters, totalEvents, localFits)
	if hits+misses > 0 {
		fmt.Printf("  shared-fit cache: %.0f hits / %.0f misses (%.1f%% hit rate)\n",
			hits, misses, 100*hits/(hits+misses))
	}
	driftEvents, trustN := 0, 0
	trustMin, trustMax := 0.0, 0.0
	for _, st := range stats {
		driftEvents += st.driftEvents
		if st.trustN == 0 {
			continue
		}
		if trustN == 0 || st.trustMin < trustMin {
			trustMin = st.trustMin
		}
		if trustN == 0 || st.trustMax > trustMax {
			trustMax = st.trustMax
		}
		trustN += st.trustN
	}
	if driftEvents > 0 || trustN > 0 {
		fmt.Printf("  drift: %d events; trust radius [%.3f, %.3f] over %d iterations\n",
			driftEvents, trustMin, trustMax, trustN)
	}
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
