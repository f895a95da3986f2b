package repo

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/workload"
)

func sampleResult(t *testing.T, seed int64) (*core.Result, *knobs.Space) {
	t.Helper()
	w := workload.Twitter()
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	space := knobs.CaseStudySpace()
	ev := core.NewSimEvaluator(sim, space, dbsim.CPUPct)
	cfg := core.DefaultConfig(seed)
	cfg.Acq = bo.OptimizerConfig{RandomCandidates: 64, LocalStarts: 2, LocalSteps: 5, StepScale: 0.1}
	res, err := core.New(cfg).Run(ev, 12)
	if err != nil {
		t.Fatal(err)
	}
	return res, space
}

func TestFromResultAndRoundTrip(t *testing.T) {
	res, space := sampleResult(t, 1)
	rec := FromResult("task-1", "twitter", "A", []float64{0.1, 0.2, 0.3, 0.2, 0.2}, space, res)
	if len(rec.Observations) != 13 {
		t.Fatalf("observations: %d", len(rec.Observations))
	}
	if len(rec.KnobNames) != 3 {
		t.Fatalf("knob names: %v", rec.KnobNames)
	}
	if len(rec.Observations[0].Internal) == 0 {
		t.Fatal("internal metrics not persisted")
	}

	var r Repository
	r.Add(rec)
	if r.Observations() != 13 {
		t.Fatalf("total observations: %d", r.Observations())
	}

	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tasks) != 1 || loaded.Tasks[0].TaskID != "task-1" {
		t.Fatalf("loaded: %+v", loaded.Tasks)
	}
	if loaded.Observations() != 13 {
		t.Fatal("observations lost in round trip")
	}
	h := loaded.Tasks[0].History()
	if h[0].Res != rec.Observations[0].Res {
		t.Fatal("history mismatch")
	}
}

// fitCorpusTasks materializes every corpus task of r for the space — the
// learners a session on the exact path weights.
func fitCorpusTasks(r *Repository, space *knobs.Space, seed int64, pred func(TaskMeta) bool) ([]*meta.BaseLearner, error) {
	tasks, err := r.CorpusTasks(space, seed, pred)
	if err != nil {
		return nil, err
	}
	bls := make([]*meta.BaseLearner, len(tasks))
	for i, task := range tasks {
		if bls[i], err = task.Fit(); err != nil {
			return nil, err
		}
	}
	return bls, nil
}

func TestBaseLearnersFilterAndSpaceCheck(t *testing.T) {
	res, space := sampleResult(t, 2)
	var r Repository
	r.Add(FromResult("a", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res))
	r.Add(FromResult("b", "twitter", "B", []float64{0, 1, 0, 0, 0}, space, res))

	// All tasks.
	bls, err := fitCorpusTasks(&r, space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bls) != 2 {
		t.Fatalf("base learners: %d", len(bls))
	}
	if bls[0].TaskID != "a" || bls[0].HardwareName != "A" {
		t.Fatalf("metadata lost: %+v", bls[0])
	}

	// Varying-hardware setting: hold out instance A.
	bls, err = fitCorpusTasks(&r, space, 1, func(m TaskMeta) bool { return m.Hardware != "A" })
	if err != nil {
		t.Fatal(err)
	}
	if len(bls) != 1 || bls[0].TaskID != "b" {
		t.Fatalf("filtered learners: %d", len(bls))
	}

	// Mismatched knob space is skipped, not an error.
	other := knobs.Fig1Space()
	bls, err = fitCorpusTasks(&r, other, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bls) != 0 {
		t.Fatal("space mismatch should skip tasks")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadTruncatedJSON(t *testing.T) {
	res, space := sampleResult(t, 3)
	var r Repository
	r.Add(FromResult("t", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res))
	path := filepath.Join(t.TempDir(), "repo.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write under the old non-atomic Save manifested as a
	// truncated file; Load must fail cleanly on one, never return a
	// half-parsed repository.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(data)) * frac)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Fatalf("truncation at %d/%d bytes: expected a decode error", cut, len(data))
		}
	}
}

func TestSaveAtomicReplace(t *testing.T) {
	res, space := sampleResult(t, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.json")

	var r1 Repository
	r1.Add(FromResult("first", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res))
	if err := r1.Save(path); err != nil {
		t.Fatal(err)
	}
	var r2 Repository
	r2.Add(FromResult("second", "twitter", "B", []float64{0, 1, 0, 0, 0}, space, res))
	if err := r2.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Tasks) != 1 || loaded.Tasks[0].TaskID != "second" {
		t.Fatalf("replace lost: %+v", loaded.Tasks)
	}
	// No temp-file litter after successful saves.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "repo.json" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("leftover files: %v", names)
	}
}

func TestBaseLearnersShuffledKnobOrder(t *testing.T) {
	res, space := sampleResult(t, 5)
	rec := FromResult("orig", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res)

	// The same task stored under a reversed knob ordering, with every Theta
	// permuted to match its own knob_names — as another tool writing the
	// repository legitimately might.
	shuffled := rec
	shuffled.TaskID = "shuffled"
	n := len(rec.KnobNames)
	shuffled.KnobNames = make([]string, n)
	for i, name := range rec.KnobNames {
		shuffled.KnobNames[n-1-i] = name
	}
	shuffled.Observations = make([]ObservationRecord, len(rec.Observations))
	for i, o := range rec.Observations {
		theta := make([]float64, n)
		for j, v := range o.Theta {
			theta[n-1-j] = v
		}
		shuffled.Observations[i] = ObservationRecord{Theta: theta, Res: o.Res, Tps: o.Tps, Lat: o.Lat}
	}

	var orig, shuf Repository
	orig.Add(rec)
	shuf.Add(shuffled)
	blsOrig, err := fitCorpusTasks(&orig, space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	blsShuf, err := fitCorpusTasks(&shuf, space, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blsOrig) != 1 || len(blsShuf) != 1 {
		t.Fatalf("learners: %d orig, %d shuffled (order must not exclude a matching knob set)",
			len(blsOrig), len(blsShuf))
	}
	// After permutation the two histories are identical, so the fitted
	// learners must predict identically.
	probe := []float64{0.25, 0.5, 0.75}
	for _, m := range bo.Metrics {
		mo, vo := blsOrig[0].Predict(m, probe)
		ms, vs := blsShuf[0].Predict(m, probe)
		if mo != ms || vo != vs {
			t.Fatalf("metric %v: predictions diverge: (%g,%g) vs (%g,%g)", m, mo, vo, ms, vs)
		}
	}
}

func TestBaseLearnersThetaLengthMismatch(t *testing.T) {
	res, space := sampleResult(t, 6)
	rec := FromResult("bad", "twitter", "A", []float64{1, 0, 0, 0, 0}, space, res)
	// Force the permutation path (reverse the names), then corrupt one Theta.
	n := len(rec.KnobNames)
	rev := make([]string, n)
	for i, name := range rec.KnobNames {
		rev[n-1-i] = name
	}
	rec.KnobNames = rev
	rec.Observations[0].Theta = rec.Observations[0].Theta[:n-1]
	var r Repository
	r.Add(rec)
	if _, err := fitCorpusTasks(&r, space, 1, nil); err == nil {
		t.Fatal("expected an error for a theta/knob-set length mismatch")
	}
}
