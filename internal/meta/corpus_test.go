package meta

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/gp"
	"repro/internal/obs"
)

// testCorpus builds n tasks with 2-D meta-features spread along a line, and
// fit closures that count invocations.
func testCorpus(t *testing.T, n int, fits *[]int) []CorpusTask {
	t.Helper()
	if *fits == nil {
		*fits = make([]int, n)
	}
	tasks := make([]CorpusTask, n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = CorpusTask{
			ID:          fmt.Sprintf("task-%03d", i),
			MetaFeature: []float64{float64(i) / float64(n), 1 - float64(i)/float64(n)},
			Fit: func() (*BaseLearner, error) {
				(*fits)[i]++
				h := synthHistory(8, 0.3+0.01*float64(i), 10, 0, int64(i)+1)
				return NewBaseLearnerSparse(fmt.Sprintf("task-%03d", i), "w", "A",
					[]float64{float64(i) / float64(n), 1 - float64(i)/float64(n)}, h, 1, int64(i)+1, gp.SparseConfig{})
			},
		}
	}
	return tasks
}

func TestCorpusExactFallback(t *testing.T) {
	var fits []int
	tasks := testCorpus(t, 5, &fits)
	c := NewCorpus(tasks, CorpusOptions{ShortlistK: 2})
	if err := c.Activate([]float64{0.1, 0.9}); err != nil {
		t.Fatal(err)
	}
	if c.Shortlisting() {
		t.Fatal("5 tasks should take the exact fallback")
	}
	if got := c.active; !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("exact path must activate every task in order, got %v", got)
	}
	for _, n := range fits {
		if n != 0 {
			t.Fatal("Activate must not fit any learner")
		}
	}
	learners, ids, err := c.ActiveLearners()
	if err != nil {
		t.Fatal(err)
	}
	if len(learners) != 5 || !reflect.DeepEqual(ids, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %d learners, ids %v", len(learners), ids)
	}
	for i, bl := range learners {
		if bl.TaskID != tasks[i].ID {
			t.Fatalf("learner %d is %s", i, bl.TaskID)
		}
	}
	if _, _, err := c.ActiveLearners(); err != nil {
		t.Fatal(err)
	}
	for i, n := range fits {
		if n != 1 {
			t.Fatalf("task %d fitted %d times, want exactly once", i, n)
		}
	}
}

func TestCorpusShortlistNearest(t *testing.T) {
	var fits []int
	tasks := testCorpus(t, 40, &fits)
	c := NewCorpus(tasks, CorpusOptions{ShortlistK: 4, ExactThreshold: -1})
	if err := c.Activate(tasks[10].MetaFeature); err != nil {
		t.Fatal(err)
	}
	if !c.Shortlisting() {
		t.Fatal("negative threshold must force shortlisting")
	}
	// Neighbors of task 10 by distance: 10, then {9,11} tied, then {8,12}
	// tied — the last slot breaks toward the lower id, 8.
	if got := c.active; !reflect.DeepEqual(got, []int{8, 9, 10, 11}) {
		t.Fatalf("shortlist around task 10: got %v", got)
	}
	if _, _, err := c.ActiveLearners(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range fits {
		total += n
	}
	if total != 4 {
		t.Fatalf("%d fits, want 4 (only the shortlist)", total)
	}
}

func TestCorpusShortlistSkipsIncomparable(t *testing.T) {
	var fits []int
	tasks := testCorpus(t, 10, &fits)
	tasks[2].MetaFeature = []float64{1}                // wrong dim
	tasks[3].MetaFeature = []float64{math.NaN(), 0}    // non-finite
	tasks[4].MetaFeature = []float64{0.4, math.Inf(1)} // non-finite
	c := NewCorpus(tasks, CorpusOptions{ShortlistK: 8, ExactThreshold: -1})
	if err := c.Activate([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	// 7 comparable tasks <= K=8: all comparable tasks active, none of the
	// incomparable ones.
	if got := c.active; !reflect.DeepEqual(got, []int{0, 1, 5, 6, 7, 8, 9}) {
		t.Fatalf("got %v", got)
	}
}

func TestCorpusNoComparableTargetFallsBackToFirstK(t *testing.T) {
	var fits []int
	tasks := testCorpus(t, 10, &fits)
	c := NewCorpus(tasks, CorpusOptions{ShortlistK: 3, ExactThreshold: -1})
	if err := c.Activate(nil); err != nil {
		t.Fatal(err)
	}
	if got := c.active; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("nil target should fall back to the first K tasks, got %v", got)
	}
}

// spanLedger counts span opens and closes per name on top of a live
// recorder.
type spanLedger struct {
	obs.Recorder
	opened, closed map[string]int
}

type ledgerSpan struct {
	obs.Span
	l    *spanLedger
	name string
}

func (l *spanLedger) Span(name string, attrs ...obs.Attr) obs.Span {
	l.opened[name]++
	return ledgerSpan{l.Recorder.Span(name, attrs...), l, name}
}

func (s ledgerSpan) End() {
	s.l.closed[s.name]++
	s.Span.End()
}

// TestCorpusActivateClosesItsSpan pins that Activate ends the
// meta.corpus_activate span it opened on every path its arguments can
// reach: the exact fallback, the indexed shortlist, and the
// fewer-comparable-than-K, nothing-comparable and non-finite-target
// fallbacks. The span used to leak when shortlist returned an index error;
// that path cannot be provoked from here (the comparable filter rejects
// everything the index validates), so the defer that now ends the span is
// its only cover.
func TestCorpusActivateClosesItsSpan(t *testing.T) {
	var fits []int
	big := testCorpus(t, 70, &fits) // above the index's brute-force threshold
	mixed := testCorpus(t, 6, &fits)
	mixed[0].MetaFeature = []float64{0.5}
	cases := []struct {
		name   string
		tasks  []CorpusTask
		opts   CorpusOptions
		target []float64
	}{
		{"exact fallback", mixed, CorpusOptions{}, []float64{0.1, 0.9}},
		{"indexed shortlist", big, CorpusOptions{ShortlistK: 4}, []float64{0.1, 0.9}},
		{"fewer comparable than K", mixed, CorpusOptions{ShortlistK: 8, ExactThreshold: -1}, []float64{0.1, 0.9}},
		{"nothing comparable", mixed, CorpusOptions{ShortlistK: 2, ExactThreshold: -1}, []float64{1, 2, 3}},
		{"non-finite target", mixed, CorpusOptions{ShortlistK: 2, ExactThreshold: -1}, []float64{math.NaN(), 0}},
	}
	for _, tc := range cases {
		led := &spanLedger{Recorder: obs.NewRegistry(nil), opened: map[string]int{}, closed: map[string]int{}}
		tc.opts.Recorder = led
		c := NewCorpus(tc.tasks, tc.opts)
		if err := c.Activate(tc.target); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if led.opened["meta.corpus_activate"] != 1 || led.closed["meta.corpus_activate"] != 1 {
			t.Fatalf("%s: corpus_activate spans opened %d, closed %d, want 1 and 1", tc.name,
				led.opened["meta.corpus_activate"], led.closed["meta.corpus_activate"])
		}
	}
}

func TestCorpusScatterWeights(t *testing.T) {
	var fits []int
	tasks := testCorpus(t, 6, &fits)
	c := NewCorpus(tasks, CorpusOptions{})
	got := c.ScatterWeights([]int{1, 4}, []float64{0.25, 0.5, 0.25})
	want := []float64{0, 0.25, 0, 0, 0.5, 0, 0.25}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scatter %v, want %v", got, want)
	}
	// Exact path: scatter over the full id set is the identity.
	full := c.ScatterWeights([]int{0, 1, 2, 3, 4, 5}, []float64{1, 2, 3, 4, 5, 6, 7})
	if !reflect.DeepEqual(full, []float64{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("identity scatter: %v", full)
	}
}
