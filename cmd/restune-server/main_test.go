package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/restune"
)

// TestMain makes the test binary restune-server itself when
// RESTUNE_SERVER_ARGS is set (arguments separated by newlines), so a test
// can run the command and read its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RESTUNE_SERVER_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnknownInstance: an -instance naming no instance type exits 2
// with the list of names before any session starts; a name's case does not
// matter, so the last row passes the check and fails later, on a repository
// file that does not exist.
func TestRejectsUnknownInstance(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-instance", "z"}, 2, "unknown instance \"z\" (want one of A, B, C, D, E, F)"},
		{[]string{"-instance", "", "-repo", missing}, 2, "want one of A, B, C, D, E, F"},
		{[]string{"-instance", "b", "-repo", missing}, 1, missing},
	} {
		args := append([]string{"-sessions", "1", "-iters", "2"}, tc.args...)
		code, stdout, stderr := runServer(t, args)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) || strings.Contains(stderr, "panic") {
			t.Errorf("%s: exit %d, stderr %q; want exit %d naming %q",
				strings.Join(args, " "), code, stderr, tc.code, tc.stderr)
		}
		if stdout != "" {
			t.Errorf("%s: a session started: %q", strings.Join(args, " "), stdout)
		}
	}
}

// runServer runs restune-server with args and returns its exit code and
// output.
func runServer(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RESTUNE_SERVER_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestPickWorkloadsAcceptsEveryListedName: the server resolves the same
// workload names as restune-tune, sysbench-100g included.
func TestPickWorkloadsAcceptsEveryListedName(t *testing.T) {
	names := restune.WorkloadNames()
	ws, err := pickWorkloads(strings.Join(names, ", "))
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(names) {
		t.Fatalf("%d workloads for %d names", len(ws), len(names))
	}
}

// TestSyntheticTargetPerWorkload: every session of one workload tunes towards
// the same unit-norm target, and different workloads towards different ones.
func TestSyntheticTargetPerWorkload(t *testing.T) {
	const seed, dim = 3, 5
	a := syntheticTarget(seed, "tpcc", dim)
	if b := syntheticTarget(seed, "tpcc", dim); !reflect.DeepEqual(a, b) {
		t.Fatalf("one workload, two targets: %v and %v", a, b)
	}
	norm := 0.0
	for _, x := range a {
		norm += x * x
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-12 {
		t.Fatalf("target norm %v, want 1", math.Sqrt(norm))
	}
	if c := syntheticTarget(seed, "twitter", dim); reflect.DeepEqual(a, c) {
		t.Fatalf("workloads tpcc and twitter share target %v", a)
	}
}
