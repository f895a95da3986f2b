package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program reports from: same workloads, same metric names, units, directions
// and bounds, in the same order.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: bad name or unit in %+v", kind, d)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better is %q", kind, d.Name, d.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: %s: bound %v in BENCHMARK.json, %v in the program", kind, d.Name, g.Bound, d.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: %s: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs all six workloads, untraced and traced (probes included),
// at tiny sizes, and checks that every named metric comes out once, finite
// and with its unit, and that every output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	dir := t.TempDir()
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			opt := runOptions{
				seed: 1, seconds: 0.001, trace: trace, workers: 1, sc: tiny(),
				dir: filepath.Join(dir, "run"), traceDir: filepath.Join(dir, "traces"),
			}
			res, err := runWorkload(def, opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace=%v: output check failed: %s", def.Name, trace, res.CheckErr)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", def.Name, trace, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", def.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", def.Name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s is %v", def.Name, trace, d.Name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", def.Name, d.Name)
				}
			}
			if trace {
				checkTraceFile(t, res.TraceFile)
			}
		}
	}
}

// checkTraceFile checks the shape of a traced run's JSONL: every line
// parses, every span has an id and lies inside its parent's session tree.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[float64]bool{}
	var lines []map[string]any
	for _, raw := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var line map[string]any
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatalf("%s: %v in %q", path, err, raw)
		}
		if line["t"] == "span" {
			ids[line["id"].(float64)] = true
		}
		lines = append(lines, line)
	}
	names := map[string]bool{}
	for _, line := range lines {
		if line["t"] != "span" {
			continue
		}
		names[line["name"].(string)] = true
		if p := line["parent"].(float64); p != 0 && !ids[p] {
			t.Errorf("%s: span %v has unknown parent %v", path, line["id"], p)
		}
		if line["end_us"].(float64) < line["start_us"].(float64) || line["self_us"].(float64) < 0 {
			t.Errorf("%s: span %v: bad times %v", path, line["id"], line)
		}
	}
	for _, want := range []string{"workload", "measure"} {
		if !names[want] {
			t.Errorf("%s: no %q span", path, want)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], 100-(70-10)-(100-90); int64(got) != int64(want) {
		t.Errorf("self time of parent = %d, want %d", got, want)
	}
	if self[2] != 40 {
		t.Errorf("self time of a leaf = %d, want its duration 40", self[2])
	}
}

// A span that outlives the span it was opened in moves up to that span's
// parent, so that no interval is counted as two spans' own time.
func TestSpanOutlivingItsParentIsHandedUp(t *testing.T) {
	st := newTracer().session()
	outer := st.Span("session")
	step1 := st.Span("step")
	long := st.Span("core.session")
	step1.End()
	step2 := st.Span("step")
	step2.End()
	long.End()
	outer.End()
	byName := map[string][]spanRec{}
	for _, sp := range st.t.allSpans() {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	session, cs, steps := byName["session"][0], byName["core.session"][0], byName["step"]
	if cs.Parent != session.ID {
		t.Errorf("core.session parent = %d, want the session span %d", cs.Parent, session.ID)
	}
	if steps[0].Parent != session.ID || steps[1].Parent != cs.ID {
		t.Errorf("step parents = %d, %d; want %d, %d", steps[0].Parent, steps[1].Parent, session.ID, cs.ID)
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{105, 104, 106}, "ok"},
		{lower, []float64{100, 101, 99}, []float64{115, 114, 116}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "worse"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{lower, []float64{100, 140, 60}, []float64{105, 150, 70}, "unresolved"},
		{lower, []float64{100, 140, 60}, []float64{50, 55, 40}, "ok"},
		{lower, []float64{100, 140, 60}, []float64{150, 190, 141}, "worse"},
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: judge = %s, want %s", i, got, c.want)
		}
	}
}
