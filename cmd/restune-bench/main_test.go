package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/restune"
)

// TestMain makes the test binary restune-bench itself when
// RESTUNE_BENCH_ARGS is set (arguments separated by newlines), so a test can
// run the command and read its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RESTUNE_BENCH_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs the command with args as a subprocess and returns its
// stdout, stderr and exit code.
func runBench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RESTUNE_BENCH_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), code
}

// TestRejectsConflictingModes: -id, -all and -timeline select one mode each,
// and -csv, which only experiments write, does not combine with -timeline.
// Each conflict exits 2, naming the flag, before anything runs.
func TestRejectsConflictingModes(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-id", "fig3", "-all"}, "-all"},
		{[]string{"-timeline", "spike", "-id", "fig3"}, "-timeline"},
		{[]string{"-timeline", "spike", "-all"}, "-timeline"},
		{[]string{"-timeline", "spike", "-csv", t.TempDir()}, "-csv"},
		{[]string{"-iters", "4"}, "-id"},
	} {
		stdout, stderr, code := runBench(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 naming %q", strings.Join(tc.args, " "), code, stderr, tc.stderr)
		}
		if stdout != "" {
			t.Errorf("%s: ran before the rejection: %q", strings.Join(tc.args, " "), stdout)
		}
	}
}

// TestTimelineInputs runs -timeline on each kind of input: a CSV load file
// (whose header names the schedule's own length), a name that is neither a
// built-in profile nor a readable file, and "all", whose table rows are the
// drift experiment's at the same seed and budget.
func TestTimelineInputs(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "sched.csv")
	if err := os.WriteFile(csv, []byte("0,1\n3600,2,0.1\n7200,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	profiles := restune.TimelineProfileNames()
	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T, stdout, stderr string, code int)
	}{
		{"csv", []string{"-timeline", csv, "-iters", "8"}, func(t *testing.T, stdout, stderr string, code int) {
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			if !strings.Contains(stdout, "Simulated 2h day compressed into 8 measurements") {
				t.Errorf("header does not name the schedule's 2h length:\n%s", stdout)
			}
			if rows := tableRows(stdout, []string{"sched.csv"}); len(rows) != 2 {
				t.Errorf("want one row per arm for sched.csv, got %d:\n%s", len(rows), stdout)
			}
		}},
		{"unknown", []string{"-timeline", "weekend"}, func(t *testing.T, stdout, stderr string, code int) {
			if code != 1 || !strings.Contains(stderr, strings.Join(profiles, ", ")) {
				t.Errorf("exit %d, stderr %q; want exit 1 listing %v", code, stderr, profiles)
			}
		}},
		{"all", []string{"-timeline", "all", "-iters", "16", "-seed", "2"}, func(t *testing.T, stdout, stderr string, code int) {
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			drift, stderr, code := runBench(t, "-id", "drift", "-iters", "16", "-seed", "2")
			if code != 0 {
				t.Fatalf("-id drift: exit %d, stderr %q", code, stderr)
			}
			got, want := tableRows(stdout, profiles), tableRows(drift, profiles)
			if len(want) != 2*len(profiles) || !slices.EqualFunc(got, want, slices.Equal[[]string]) {
				t.Errorf("-timeline all rows\n%v\ndiffer from -id drift rows\n%v", got, want)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := runBench(t, tc.args...)
			tc.check(t, stdout, stderr, code)
		})
	}
}

// tableRows returns the fields of every simulated-day table row — seven
// fields, the first one of names.
func tableRows(out string, names []string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 7 && slices.Contains(names, f[0]) {
			rows = append(rows, f)
		}
	}
	return rows
}
