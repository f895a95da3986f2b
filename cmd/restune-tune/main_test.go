package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain makes the test binary restune-tune itself when RESTUNE_TUNE_ARGS
// is set (arguments separated by newlines), so a test can run the command
// and read its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RESTUNE_TUNE_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsIgnoredFlagCombinations: a flag the chosen session would
// ignore is an error (exit 2, the flag named on stderr) before any session
// starts, so nothing reaches stdout; so is an -instance naming no instance
// type. The last rows pass the check (an instance name's case does not
// matter) and fail later, on a repository file that does not exist.
func TestRejectsIgnoredFlagCombinations(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-shortlist", "4"}, 2, "-shortlist"},
		{[]string{"-shortlist", "4", "-method", "ituned"}, 2, "-shortlist"},
		{[]string{"-shortlist", "4", "-method", "ottertune", "-repo", missing}, 2, "-shortlist"},
		{[]string{"-repo", missing, "-method", "ituned"}, 2, "-repo"},
		{[]string{"-repo", missing, "-method", "CDBTune"}, 2, "-repo"},
		{[]string{"-repo", missing, "-method", "grid"}, 2, "-repo"},
		{[]string{"-repo", missing, "-method", "default"}, 2, "-repo"},
		{[]string{"-knobs", "cpu", "-engine"}, 2, "-knobs"},
		{[]string{"-knobs", "case-study", "-engine", "-method", "default"}, 2, "-knobs"},
		{[]string{"-instance", "z"}, 2, "unknown instance \"z\" (want one of A, B, C, D, E, F)"},
		{[]string{"-instance", "A1", "-repo", missing}, 2, "want one of A, B, C, D, E, F"},
		{[]string{"-shortlist", "4", "-repo", missing}, 1, missing},
		{[]string{"-instance", "b", "-repo", missing}, 1, missing},
		{[]string{"-method", "ottertune", "-repo", missing}, 1, missing},
	} {
		code, stdout, stderr := runTune(t, append([]string{"-iters", "2"}, tc.args...))
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d naming %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.stderr)
		}
		if tc.code == 2 && stdout != "" {
			t.Errorf("%s: a session started before the rejection: %q", strings.Join(tc.args, " "), stdout)
		}
	}
}

// TestRejectsGridOverWideSpace: -method grid over the 14-knob CPU space
// would enumerate 8^14 points. The grid search refuses it before its
// session starts, and the command exits 2 with the message rather than
// panicking or running.
func TestRejectsGridOverWideSpace(t *testing.T) {
	code, stdout, stderr := runTune(t, []string{"-method", "grid", "-knobs", "cpu", "-iters", "2"})
	if code != 2 || strings.Contains(stderr, "panic") || !strings.Contains(stderr, "restune-tune: grid search: grid too large") {
		t.Fatalf("exit %d, stderr %q; want exit 2 with the grid cap's message", code, stderr)
	}
	if strings.Contains(stdout, "SLA from default") {
		t.Fatalf("a session ran: %q", stdout)
	}
}

// runTune runs restune-tune with args and returns its exit code and output.
func runTune(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RESTUNE_TUNE_ARGS="+strings.Join(args, "\n"))
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
