// Command restune-repo builds and inspects the ResTune data repository:
// tuning histories collected by running past tuning tasks (the repository
// workloads on instances A and B — 34 tasks at the paper's full scale),
// each with its workload meta-feature, persisted in the indexed repository
// format for later meta-boosted sessions.
//
// Examples:
//
//	restune-repo -out repo.json -iters 60               # build (full: 34 tasks)
//	restune-repo -out repo.json -iters 24 -limit 6      # quicker, 12 tasks
//	restune-repo -inspect repo.json                     # summarize an existing repository from its index
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/knobs"
	"repro/restune"
)

func main() {
	var (
		out     = flag.String("out", "repo.json", "output path for the repository JSON")
		iters   = flag.Int("iters", 40, "tuning iterations per repository task")
		limit   = flag.Int("limit", 0, "cap the number of distinct workloads (0 = all 17)")
		seed    = flag.Int64("seed", 1, "random seed")
		space   = flag.String("space", "cpu", "knob space the histories cover: cpu, memory, io")
		inspect = flag.String("inspect", "", "summarize an existing repository instead of building")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "restune-repo: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		os.Exit(2)
	}
	if *inspect != "" {
		// -inspect reads an existing repository: every build flag would be
		// ignored, so setting one is an error.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "inspect" {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "restune-repo: -inspect reads an existing repository and would ignore %s\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
		if err := inspectRepo(*inspect); err != nil {
			fmt.Fprintln(os.Stderr, "restune-repo:", err)
			os.Exit(1)
		}
		return
	}
	if *iters <= 0 {
		fmt.Fprintf(os.Stderr, "restune-repo: -iters must be positive (got %d)\n", *iters)
		os.Exit(2)
	}
	if *limit < 0 {
		fmt.Fprintf(os.Stderr, "restune-repo: -limit must not be negative (got %d)\n", *limit)
		os.Exit(2)
	}
	if err := build(*out, *iters, *limit, *seed, *space); err != nil {
		fmt.Fprintln(os.Stderr, "restune-repo:", err)
		os.Exit(1)
	}
}

func build(out string, iters, limit int, seed int64, spaceName string) error {
	var space *knobs.Space
	var resource dbsim.ResourceKind
	halfRAM := true
	switch spaceName {
	case "cpu":
		space, resource = knobs.CPUSpace(), dbsim.CPUPct
	case "memory":
		space, resource, halfRAM = knobs.MemorySpace(), dbsim.MemoryBytes, false
	case "io":
		space, resource = knobs.IOSpace(), dbsim.IOPS
	default:
		return fmt.Errorf("unknown space %q (cpu, memory, io)", spaceName)
	}

	p := experiments.Quick()
	p.Seed = seed
	p.RepoIters = iters
	p.RepoWorkloadLimit = limit

	nWorkloads := len(experiments.RepoWorkloads())
	if limit > 0 && limit < nWorkloads {
		nWorkloads = limit
	}
	fmt.Printf("building %s repository: %d workloads x 2 instances (A, B), %d iterations each\n",
		spaceName, nWorkloads, iters)
	r, err := experiments.BuildRepository(space, resource, p, halfRAM)
	if err != nil {
		return err
	}
	if err := r.Save(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d tasks, %d observations\n", out, len(r.Tasks), r.Observations())
	return nil
}

// inspectRepo summarizes a repository from its index alone: no task
// history is decoded.
func inspectRepo(path string) error {
	r, err := restune.OpenLazyRepository(path)
	if err != nil {
		return err
	}
	defer r.Close()
	obs := 0
	for i := 0; i < r.Len(); i++ {
		obs += r.Meta(i).ObsCount
	}
	fmt.Printf("%s: %d tasks, %d observations\n\n", path, r.Len(), obs)
	fmt.Printf("%-28s %-10s %6s %14s\n", "Task", "Hardware", "Obs", "KnobSpace")
	for i := 0; i < r.Len(); i++ {
		m := r.Meta(i)
		fmt.Printf("%-28s %-10s %6d %10d knobs\n", m.TaskID, m.Hardware, m.ObsCount, len(m.KnobNames))
	}
	return nil
}
