package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
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
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "RESTUNE_BENCH_ARGS="+strings.Join(tc.args, "\n"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%s: %v, stderr %q; want exit 2 naming %q", strings.Join(tc.args, " "), err, stderr.String(), tc.stderr)
		}
		if stdout.Len() > 0 {
			t.Errorf("%s: ran before the rejection: %q", strings.Join(tc.args, " "), stdout.String())
		}
	}
}
