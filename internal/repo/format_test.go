package repo

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// headerMessage is what opening a file without the format header reports.
const headerMessage = `missing the "restune-repo v2" header; rebuild the repository with restune-repo -out`

// tinyRepo is a two-task repository small enough to fuzz from.
func tinyRepo() *Repository {
	return &Repository{Tasks: []TaskRecord{
		{TaskID: "a", Workload: "twitter", Hardware: "A", KnobNames: []string{"k1", "k2"}, MetaFeature: []float64{1, 0},
			Observations: []ObservationRecord{
				{Theta: []float64{0.1, 0.2}, Res: 50, Tps: 1000, Lat: 3, Internal: []float64{7}},
				{Theta: []float64{0.3, 0.4}, Res: 40, Tps: 990, Lat: 3.5},
			}},
		{TaskID: "b", Workload: "tpcc", Hardware: "B", KnobNames: []string{"k2", "k1"}, MetaFeature: []float64{0, 1},
			Observations: []ObservationRecord{{Theta: []float64{0.5, 0.6}, Res: 20, Tps: 300, Lat: 9}}},
	}}
}

// editIndex returns data, a saved repository, with its index line decoded,
// passed to edit and re-encoded; the segments are kept byte for byte.
func editIndex(t testing.TB, data []byte, edit func(map[string][]map[string]json.RawMessage)) []byte {
	t.Helper()
	body := data[len(formatHeader):]
	nl := bytes.IndexByte(body, '\n')
	var ix map[string][]map[string]json.RawMessage
	if err := json.Unmarshal(body[:nl], &ix); err != nil {
		t.Fatal(err)
	}
	edit(ix)
	line, err := json.Marshal(ix)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(formatHeader), line...)
	return append(out, body[nl:]...)
}

// FuzzOpenRepository feeds arbitrary bytes after the format header to
// OpenLazy, every Task and Load. Each call either fails or returns records
// that agree with their index entries, and Load agrees with OpenLazy; no
// input panics.
func FuzzOpenRepository(f *testing.F) {
	// Each fuzz worker is its own process calling the target serially, so
	// one file per process serves every input.
	path := filepath.Join(f.TempDir(), "repo.json")
	if err := tinyRepo().Save(path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[len(formatHeader):])
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, append([]byte(formatHeader), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		var records []*TaskRecord // nil where Task failed
		l, openErr := OpenLazy(path)
		if openErr == nil {
			for i := 0; i < l.Len(); i++ {
				rec, err := l.Task(i)
				if err != nil {
					records = append(records, nil)
					continue
				}
				if m := l.Meta(i); rec.TaskID != m.TaskID || len(rec.Observations) != m.ObsCount {
					t.Fatalf("task %d: record (%q, %d observations) disagrees with its index entry %+v",
						i, rec.TaskID, len(rec.Observations), m)
				}
				records = append(records, &rec)
			}
			l.Close()
		}
		r, err := Load(path)
		if err != nil {
			return
		}
		if openErr != nil {
			t.Fatalf("Load succeeded where OpenLazy failed: %v", openErr)
		}
		if len(r.Tasks) != len(records) {
			t.Fatalf("Load: %d tasks, index has %d", len(r.Tasks), len(records))
		}
		for i, rec := range r.Tasks {
			if records[i] == nil || !reflect.DeepEqual(rec, *records[i]) {
				t.Fatalf("Load task %d differs from Task(%d)", i, i)
			}
		}
	})
}
