package repo

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/bo"
	"repro/internal/gp"
	"repro/internal/meta"
)

// writeV1 writes the repository in the pre-index v1 format (one indented
// JSON object), as old saves did.
func writeV1(t *testing.T, r *Repository, path string) {
	t.Helper()
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func twoTaskRepo(t *testing.T) *Repository {
	t.Helper()
	res, space := sampleResult(t, 11)
	var r Repository
	r.Add(FromResult("a", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res))
	r.Add(FromResult("b", "twitter", "B", []float64{0, 1, 0, 0, 0}, space, res))
	return &r
}

// TestRejectsV1Files: a pre-index bare-JSON file fails at open, in Load and
// OpenLazy alike, with an error naming the missing header and the rebuild.
func TestRejectsV1Files(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.json")
	writeV1(t, tinyRepo(), path)
	r, err := Load(path)
	if r != nil || err == nil || !strings.Contains(err.Error(), headerMessage) {
		t.Fatalf("Load: %v, %v; want nil and an error containing %q", r, err, headerMessage)
	}
	l, err := OpenLazy(path)
	if l != nil || err == nil || !strings.Contains(err.Error(), headerMessage) {
		t.Fatalf("OpenLazy: %v, %v; want nil and an error containing %q", l, err, headerMessage)
	}
}

// TestOpensIndexWithKnobSetHash: files written while the index carried a
// knob_set_hash key still open, and decode to the same records.
func TestOpensIndexWithKnobSetHash(t *testing.T) {
	r := tinyRepo()
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = editIndex(t, data, func(ix map[string][]map[string]json.RawMessage) {
		for _, e := range ix["tasks"] {
			e["knob_set_hash"] = json.RawMessage("14695981039346656037")
		}
	})
	if !strings.Contains(string(data), `"knob_set_hash":14695981039346656037`) {
		t.Fatal("hand-written index lacks knob_set_hash")
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Tasks, r.Tasks) {
		t.Fatal("records differ")
	}
}

func TestOpenLazyV2(t *testing.T) {
	r := twoTaskRepo(t)
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Len() != 2 {
		t.Fatalf("len %d", l.Len())
	}
	for i, want := range r.Tasks {
		m := l.Meta(i)
		if m.TaskID != want.TaskID || m.Workload != want.Workload || m.Hardware != want.Hardware ||
			m.ObsCount != len(want.Observations) ||
			!reflect.DeepEqual(m.KnobNames, want.KnobNames) ||
			!reflect.DeepEqual(m.MetaFeature, want.MetaFeature) {
			t.Fatalf("meta %d: %+v vs record %+v", i, m, want)
		}
		got, err := l.Task(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("task %d: lazy decode differs", i)
		}
	}
}

// TestOpenLazyRejectsTruncation: a truncated file, or an index entry whose
// segment lies outside the data section, fails at open in OpenLazy and in
// Load, and never panics. The last row's offset+length wraps int64 negative.
func TestOpenLazyRejectsTruncation(t *testing.T) {
	r := twoTaskRepo(t)
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := func(frac float64) []byte { return data[:int(float64(len(data))*frac)] }
	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"cut at 10%", cut(0.1)},
		{"cut at 50%", cut(0.5)},
		{"cut at 90%", cut(0.9)},
		{"offset+length overflows", editIndex(t, data, func(ix map[string][]map[string]json.RawMessage) {
			ix["tasks"][0]["offset"] = json.RawMessage("1")
			ix["tasks"][0]["length"] = json.RawMessage(strconv.FormatInt(math.MaxInt64, 10))
		})},
	} {
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		if l, err := OpenLazy(path); err == nil {
			l.Close()
			t.Errorf("%s: OpenLazy: expected an open error", tc.name)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load: expected an open error", tc.name)
		}
	}
}

// TestLazyRepositoryConcurrentLoadTask is the fleet concurrency gate for
// the repository layer: 8 goroutines hammer Task across every index (the
// ISSUE's "8 concurrent LoadTask callers"), each decode compared against
// the eagerly-loaded truth, under -race in tier-1. Positioned reads mean no
// shared file offset; a final racing Close must fail residual reads cleanly
// rather than handing them a recycled descriptor.
func TestLazyRepositoryConcurrentLoadTask(t *testing.T) {
	r := twoTaskRepo(t)
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const callers, rounds = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				i := (c + round) % l.Len()
				got, err := l.Task(i)
				if err != nil {
					t.Errorf("caller %d round %d: %v", c, round, err)
					return
				}
				if !reflect.DeepEqual(got, r.Tasks[i]) {
					t.Errorf("caller %d round %d: task %d decode differs", c, round, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Close is idempotent and flips Task to a clean error.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Task(0); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Task after Close: err = %v, want repository-closed error", err)
	}
}

// TestLazyRepositoryCloseRacesTask drives Task callers against a
// mid-stream Close: every call must either succeed with a correct decode
// or fail with an error — never crash or return a torn record.
func TestLazyRepositoryCloseRacesTask(t *testing.T) {
	r := twoTaskRepo(t)
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			for round := 0; round < 50; round++ {
				i := (c + round) % l.Len()
				got, err := l.Task(i)
				if err != nil {
					continue // closed underneath us: acceptable
				}
				if !reflect.DeepEqual(got, r.Tasks[i]) {
					t.Errorf("caller %d: torn decode for task %d", c, i)
					return
				}
			}
		}(c)
	}
	close(start)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestLazyCorpusMatchesEagerBaseLearners(t *testing.T) {
	res, space := sampleResult(t, 12)
	var r Repository
	r.Add(FromResult("a", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res))
	r.Add(FromResult("b", "twitter", "B", []float64{0, 1, 0, 0, 0}, space, res))
	// A knob-space mismatch in the middle shifts later tasks' file indices
	// relative to their learner indices: seeds must follow file indices.
	mismatched := FromResult("c", "twitter", "A", []float64{0, 0, 1, 0, 0}, space, res)
	mismatched.KnobNames = append([]string(nil), mismatched.KnobNames...)
	mismatched.KnobNames[0] = "not_a_real_knob"
	r.Tasks = append(r.Tasks[:1], append([]TaskRecord{mismatched}, r.Tasks[1:]...)...)

	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}

	// The reference learners are fitted by hand, seeded base seed + file
	// index (0 and 2 — the mismatched task in between still counts).
	var eager []*meta.BaseLearner
	for _, i := range []int{0, 2} {
		rec := r.Tasks[i]
		bl, err := meta.NewBaseLearnerSparse(rec.TaskID, rec.Workload, rec.Hardware,
			rec.MetaFeature, rec.History(), space.Dim(), 7+int64(i), gp.SparseConfig{})
		if err != nil {
			t.Fatal(err)
		}
		eager = append(eager, bl)
	}

	l, err := OpenLazy(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := l.Corpus(space, 7, nil, meta.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("corpus tasks: %d (mismatched knob set must be excluded)", c.Len())
	}
	lazy, ids, err := c.ActiveLearners()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{0, 1}) || len(lazy) != 2 {
		t.Fatalf("active: %v", ids)
	}
	probe := []float64{0.25, 0.5, 0.75}
	for i := range eager {
		if eager[i].TaskID != lazy[i].TaskID {
			t.Fatalf("task order: %s vs %s", eager[i].TaskID, lazy[i].TaskID)
		}
		for _, m := range bo.Metrics {
			me, ve := eager[i].Predict(m, probe)
			ml, vl := lazy[i].Predict(m, probe)
			if math.Float64bits(me) != math.Float64bits(ml) || math.Float64bits(ve) != math.Float64bits(vl) {
				t.Fatalf("task %s metric %v: lazy fit diverges: (%g,%g) vs (%g,%g)",
					eager[i].TaskID, m, me, ve, ml, vl)
			}
		}
	}

	// The eager Repository.Corpus path must agree as well.
	ce, err := r.Corpus(space, 7, nil, meta.CorpusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eagerCorpus, _, err := ce.ActiveLearners()
	if err != nil {
		t.Fatal(err)
	}
	for i := range eager {
		me, ve := eager[i].Predict(bo.Res, probe)
		mc, vc := eagerCorpus[i].Predict(bo.Res, probe)
		if math.Float64bits(me) != math.Float64bits(mc) || math.Float64bits(ve) != math.Float64bits(vc) {
			t.Fatalf("task %s: eager corpus fit diverges", eager[i].TaskID)
		}
	}
}
