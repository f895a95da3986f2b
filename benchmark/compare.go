package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles reads two -out files, A the reference and B the candidate,
// and applies each end-to-end metric's bound to every workload row. It
// returns the process exit code: 1 if any cell is worse, 2 if the files
// cannot be compared, else 0.
//
// A cell is
//
//	ok          B's median is no worse than A's by more than bound x |A's median|
//	worse       it is, and the runs are steady enough to say so
//	unresolved  the quartile spread of either side is wider than the bound,
//	            and the runs of the two sides overlap
//
// Per-layer metrics of traced files have no bound and are listed with their
// ratio only. Every ratio is B/A, so its base is A.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "A = %s (commit %s)   B = %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.Seconds != b.Env.Seconds || a.Env.Storage != b.Env.Storage ||
		a.Env.Workers != b.Env.Workers || a.Env.Seed != b.Env.Seed {
		fmt.Fprintf(w, "warning: environments differ: A %+v, B %+v\n", a.Env, b.Env)
	}

	worse := 0
	for _, def := range workloads {
		ra, rb := a.Runs[def.Name], b.Runs[def.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s (%d runs of A, %d of B)\n", def.Name, len(ra), len(rb))
		if ra[0].Traced != rb[0].Traced {
			fmt.Fprintln(os.Stderr, "benchmark: one file is traced and the other is not")
			return 2
		}
		hash := "same"
		for i := range ra {
			if i < len(rb) && ra[i].TraceHash != rb[i].TraceHash {
				hash = fmt.Sprintf("changed (seed %d: %s -> %s)", ra[i].Seed, ra[i].TraceHash, rb[i].TraceHash)
				break
			}
		}
		fmt.Fprintf(w, "   trace_hash %s\n", hash)
		defs := endToEnd
		if ra[0].Traced {
			defs = perLayer
		}
		for _, d := range defs {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			ma, mb := median(va), median(vb)
			ratio := "n/a"
			if ma != 0 {
				ratio = fmt.Sprintf("%.3f", mb/ma)
			}
			verdict := "info"
			if d.Bound > 0 {
				verdict = judge(d, va, vb)
				if verdict == "worse" {
					worse++
				}
			}
			fmt.Fprintf(w, "   %-10s %-36s A %12.6g  B %12.6g %-5s B/A %s (base A)", verdict, d.Name, ma, mb, d.Unit, ratio)
			if d.Bound > 0 {
				fmt.Fprintf(w, "  bound %.0f%%  spread A %.1f%% B %.1f%%", 100*d.Bound, 100*quartileSpread(va), 100*quartileSpread(vb))
			}
			fmt.Fprintln(w)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "\n%d cell(s) worse\n", worse)
		return 1
	}
	fmt.Fprintln(w, "\nno cell worse")
	return 0
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func values(runs []runResult, name string) []float64 {
	vs := make([]float64, 0, len(runs))
	for _, r := range runs {
		vs = append(vs, r.Metrics[name].Value)
	}
	return vs
}

// judge applies one metric's bound to two sets of runs.
func judge(d metricDef, a, b []float64) string {
	sign := 1.0 // how much worse B is, positive = worse
	if d.Better == "higher" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	beyond := sign*(mb-ma) > d.Bound*math.Abs(ma)
	if quartileSpread(a) <= d.Bound && quartileSpread(b) <= d.Bound {
		if beyond {
			return "worse"
		}
		return "ok"
	}
	// Too noisy for the medians alone: only runs that do not overlap decide.
	lo, hi := minMax(b)
	alo, ahi := minMax(a)
	switch {
	case sign > 0 && hi < alo, sign < 0 && lo > ahi:
		return "ok" // every run of B reads better than every run of A
	case beyond && (sign > 0 && lo > ahi || sign < 0 && hi < alo):
		return "worse"
	}
	return "unresolved"
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
