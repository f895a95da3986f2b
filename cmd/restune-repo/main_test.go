package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/repo"
)

// TestMain makes the test binary restune-repo itself when RESTUNE_REPO_ARGS
// is set (arguments separated by newlines), so a test can run the command
// and read its exit code.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RESTUNE_REPO_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInspectRejectsBuildFlags: -inspect reads an existing repository, so
// a build flag beside it would be ignored; the command exits 2 naming the
// flag before it opens the file.
func TestInspectRejectsBuildFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-iters", "5", "-space", "bogus"}, "would ignore -iters, -space"},
		{[]string{"-out", "r2.json"}, "-out"},
		{[]string{"-limit", "3"}, "-limit"},
		{[]string{"-seed", "2"}, "-seed"},
		{[]string{"-iters", "0"}, "-iters"},
	} {
		args := append([]string{"-inspect", missing}, tc.args...)
		code, stdout, stderr := runRepo(t, args)
		if code != 2 || !strings.Contains(stderr, tc.stderr) || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				strings.Join(args, " "), code, stdout, stderr, tc.stderr)
		}
	}
}

// TestInspectRejectsV1File: a file without the repository header (the
// pre-index bare-JSON format) fails with exit 1 and the header message.
func TestInspectRejectsV1File(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"tasks":[{"task_id":"a","workload":"twitter","hardware":"A","knob_names":["k"],"meta_feature":[1],"observations":[]}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runRepo(t, []string{"-inspect", path})
	want := `missing the "restune-repo v2" header; rebuild the repository with restune-repo -out`
	if code != 1 || !strings.Contains(stderr, want) || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 with %q", code, stdout, stderr, want)
	}
}

// TestInspectSavedRepository: -inspect prints the summary table of a saved
// repository from its index.
func TestInspectSavedRepository(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	obs := func(n int) []repo.ObservationRecord {
		return make([]repo.ObservationRecord, n)
	}
	r := &repo.Repository{Tasks: []repo.TaskRecord{
		{TaskID: "twitter-A", Workload: "twitter", Hardware: "A", KnobNames: []string{"k1", "k2", "k3"}, Observations: obs(3)},
		{TaskID: "tpcc-B", Workload: "tpcc", Hardware: "B", KnobNames: []string{"k1", "k2"}, Observations: obs(2)},
	}}
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runRepo(t, []string{"-inspect", path})
	want := path + ": 2 tasks, 5 observations\n\n" +
		"Task                         Hardware      Obs      KnobSpace\n" +
		"twitter-A                    A               3          3 knobs\n" +
		"tpcc-B                       B               2          2 knobs\n"
	if code != 0 || stdout != want || stderr != "" {
		t.Fatalf("exit %d, stderr %q, stdout\n%s\nwant\n%s", code, stderr, stdout, want)
	}
}

// runRepo runs restune-repo with args and returns its exit code and output.
func runRepo(t *testing.T, args []string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RESTUNE_REPO_ARGS="+strings.Join(args, "\n"))
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
