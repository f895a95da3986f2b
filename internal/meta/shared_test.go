package meta

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bo"
	"repro/internal/obs"
)

// countingTasks wraps SyntheticCorpus tasks so each underlying Fit counts
// its invocations.
func countingTasks(t *testing.T, n int, fitCalls *atomic.Int64) []CorpusTask {
	t.Helper()
	tasks := SyntheticCorpus(n, 3, 3, 12, 42)
	out := make([]CorpusTask, n)
	for i, task := range tasks {
		inner := task.Fit
		out[i] = CorpusTask{
			ID:          task.ID,
			MetaFeature: task.MetaFeature,
			Fit: func() (*BaseLearner, error) {
				fitCalls.Add(1)
				return inner()
			},
		}
	}
	return out
}

func TestSharedCorpusSingleFlight(t *testing.T) {
	var fitCalls atomic.Int64
	const n = 6
	tasks := countingTasks(t, n, &fitCalls)
	sc := NewSharedCorpus(tasks, nil)

	const sessions = 8
	learners := make([][]*BaseLearner, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := sc.NewSession(CorpusOptions{})
			if err := c.Activate(nil); err != nil {
				t.Error(err)
				return
			}
			bls, _, err := c.ActiveLearners()
			if err != nil {
				t.Error(err)
				return
			}
			learners[s] = bls
		}(s)
	}
	wg.Wait()

	if got := fitCalls.Load(); got != n {
		t.Fatalf("underlying fits = %d, want exactly %d (single-flight)", got, n)
	}
	hits, misses := sc.Stats()
	if misses != n {
		t.Fatalf("misses = %d, want %d", misses, n)
	}
	if wantHits := uint64(sessions*n - n); hits != wantHits {
		t.Fatalf("hits = %d, want %d", hits, wantHits)
	}
	if hr := sc.HitRate(); hr <= 0.5 {
		t.Fatalf("hit rate = %.3f, want > 0.5", hr)
	}
	// Every session must see the very same learner pointers: the cache
	// publishes one fit, not per-session copies.
	for s := 1; s < sessions; s++ {
		for j := range learners[0] {
			if learners[s][j] != learners[0][j] {
				t.Fatalf("session %d learner %d differs from session 0's", s, j)
			}
		}
	}
}

func TestSharedCorpusViewMatchesPrivateCorpus(t *testing.T) {
	// A session over a shared view must produce learners with identical
	// predictions to a session over its own private Corpus.
	tasks := SyntheticCorpus(5, 3, 3, 12, 7)
	sc := NewSharedCorpus(tasks, nil)

	private := NewCorpus(SyntheticCorpus(5, 3, 3, 12, 7), CorpusOptions{})
	if err := private.Activate(nil); err != nil {
		t.Fatal(err)
	}
	pbls, _, err := private.ActiveLearners()
	if err != nil {
		t.Fatal(err)
	}

	view := sc.NewSession(CorpusOptions{})
	if err := view.Activate(nil); err != nil {
		t.Fatal(err)
	}
	vbls, _, err := view.ActiveLearners()
	if err != nil {
		t.Fatal(err)
	}

	x := []float64{0.3, 0.6, 0.9}
	for j := range pbls {
		pm, pv := pbls[j].Predict(bo.Res, x)
		vm, vv := vbls[j].Predict(bo.Res, x)
		if pm != vm || pv != vv {
			t.Fatalf("task %d: shared view prediction (%v,%v) != private (%v,%v)", j, vm, vv, pm, pv)
		}
	}
}

func TestSharedCorpusMemoizesErrors(t *testing.T) {
	var fitCalls atomic.Int64
	boom := errors.New("segment decode failed")
	tasks := SyntheticCorpus(2, 3, 3, 12, 1)
	tasks[1].Fit = func() (*BaseLearner, error) {
		fitCalls.Add(1)
		return nil, boom
	}
	sc := NewSharedCorpus(tasks, nil)
	for i := 0; i < 3; i++ {
		c := sc.NewSession(CorpusOptions{})
		if err := c.Activate(nil); err != nil {
			t.Fatal(err)
		}
		_, _, err := c.ActiveLearners()
		if !errors.Is(err, boom) {
			t.Fatalf("attempt %d: err = %v, want wrapped %v", i, err, boom)
		}
	}
	if got := fitCalls.Load(); got != 1 {
		t.Fatalf("failing fit ran %d times, want 1 (errors memoized)", got)
	}
}

func TestSharedCorpusSessionViewsAreIndependent(t *testing.T) {
	// Two views over one shared corpus, activated against different
	// targets: each keeps its own shortlist and resident set, and neither
	// Activate disturbs the other's.
	const n, k = 12, 3
	tasks := SyntheticCorpus(n, 3, 3, 12, 9)
	sc := NewSharedCorpus(tasks, nil)

	a := sc.NewSession(CorpusOptions{ExactThreshold: -1, ShortlistK: k})
	b := sc.NewSession(CorpusOptions{ExactThreshold: -1, ShortlistK: k})
	if err := a.Activate(tasks[0].MetaFeature); err != nil {
		t.Fatal(err)
	}
	aIDs := append([]int(nil), a.active...)
	if err := b.Activate(tasks[n-1].MetaFeature); err != nil {
		t.Fatal(err)
	}
	bIDs := b.active
	if len(aIDs) != k || len(bIDs) != k {
		t.Fatalf("shortlists %v and %v, want %d tasks each", aIDs, bIDs, k)
	}
	if reflect.DeepEqual(aIDs, bIDs) {
		t.Fatalf("different targets produced the same shortlist %v", aIDs)
	}
	if got := a.active; !reflect.DeepEqual(got, aIDs) {
		t.Fatalf("session a shortlist moved from %v to %v when b activated", aIDs, got)
	}
	if _, _, err := a.ActiveLearners(); err != nil {
		t.Fatal(err)
	}
	if got := a.Resident(); got != k {
		t.Fatalf("session a resident = %d, want %d", got, k)
	}
	if got := b.Resident(); got != 0 {
		t.Fatalf("session b resident = %d, want 0 (a's fits are not b's)", got)
	}
}

func TestSharedCorpusResidentGaugeCountsOverlappingFits(t *testing.T) {
	// Task 0's fit is inserted first and finishes last, after task 1's:
	// the gauge must still end at both tasks resident.
	tasks := SyntheticCorpus(2, 3, 3, 12, 11)
	started, release := make(chan struct{}), make(chan struct{})
	fit0 := tasks[0].Fit
	tasks[0].Fit = func() (*BaseLearner, error) {
		close(started)
		<-release
		return fit0()
	}
	reg := obs.NewRegistry(nil)
	sc := NewSharedCorpus(tasks, reg)
	done := make(chan error)
	go func() {
		_, err := sc.fit(0)
		done <- err
	}()
	<-started
	if _, err := sc.fit(1); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot()["meta.shared_fit_resident"]; got != 2.0 {
		t.Fatalf("meta.shared_fit_resident = %v with 2 tasks resident", got)
	}
}

func TestSharedCorpusHitRateZeroBeforeUse(t *testing.T) {
	sc := NewSharedCorpus(SyntheticCorpus(2, 3, 3, 12, 3), nil)
	if hr := sc.HitRate(); hr != 0 {
		t.Fatalf("hit rate before any request = %v, want 0", hr)
	}
	if sc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sc.Len())
	}
}

func TestSharedCorpusConcurrentSameTask(t *testing.T) {
	// Hammer one task from many goroutines: exactly one fit, everyone gets
	// the same pointer. Run with -race in tier-1.
	var fitCalls atomic.Int64
	tasks := countingTasks(t, 1, &fitCalls)
	sc := NewSharedCorpus(tasks, nil)
	const callers = 16
	got := make([]*BaseLearner, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bl, err := sc.fit(0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = bl
		}(i)
	}
	wg.Wait()
	if n := fitCalls.Load(); n != 1 {
		t.Fatalf("fit ran %d times, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different learner pointer", i)
		}
	}
	if hits, misses := sc.Stats(); misses != 1 || hits != callers-1 {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, callers-1)
	}
}

func ExampleSharedCorpus() {
	tasks := SyntheticCorpus(3, 3, 3, 12, 5)
	sc := NewSharedCorpus(tasks, nil)
	for s := 0; s < 4; s++ {
		c := sc.NewSession(CorpusOptions{})
		_ = c.Activate(nil)
		_, _, _ = c.ActiveLearners()
	}
	hits, misses := sc.Stats()
	fmt.Printf("hits=%d misses=%d rate=%.2f\n", hits, misses, sc.HitRate())
	// Output: hits=9 misses=3 rate=0.75
}
