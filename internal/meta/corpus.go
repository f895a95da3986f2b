package meta

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
)

// CorpusTask is one base task held lazily by a Corpus: its identity and
// meta-feature are resident (they drive shortlisting), while the fitted
// surrogate is produced on demand by Fit — typically decoding an on-disk
// history segment and running the GP hyperparameter search — only when the
// task makes a target's shortlist.
type CorpusTask struct {
	// ID identifies the task (repo task id).
	ID string
	// MetaFeature is the workload-characterization embedding used for
	// nearest-neighbor shortlisting and static weights.
	MetaFeature []float64
	// Fit materializes the fitted base-learner. It must be deterministic:
	// sessions sharing a task list each fit it (or share one single-flight
	// fit), and their traces must not depend on which of them did.
	Fit func() (*BaseLearner, error)
}

// CorpusOptions configures a Corpus.
type CorpusOptions struct {
	// ShortlistK is how many base tasks participate in weighting per
	// target, picked by meta-feature nearest-neighbor search. 0 selects
	// DefaultShortlistK.
	ShortlistK int
	// ExactThreshold is the corpus size at or below which shortlisting is
	// bypassed entirely: every task participates and the session behaves
	// bit-identically to the eager all-learners path (the paper's 34-task
	// corpus stays on this path). 0 selects a default of 64; negative
	// forces shortlisting at any size.
	ExactThreshold int
	// Recorder receives shortlist/materialization telemetry (nil records
	// nothing). Telemetry only — shortlists and weights never depend on it.
	Recorder obs.Recorder
}

// DefaultShortlistK is the default shortlist size.
const DefaultShortlistK = 16

// defaultExactThreshold is the corpus size at or below which every task is
// active: the paper's 34-task corpus stays on the exact path.
const defaultExactThreshold = 64

// Corpus is a lazily materialized collection of base tasks with
// nearest-neighbor shortlisting: the corpus-scale replacement for passing
// every fitted base-learner to a session. Meta-features load eagerly;
// surrogates fit on first shortlist hit; per-iteration weighting touches
// only the shortlist, so meta-learning cost is sublinear in corpus size.
//
// A Corpus serves one session at a time (Activate fixes the target);
// the fitted-learner cache persists across Activate calls, so a corpus
// reused for several similar targets amortizes its fits. Methods are
// internally locked only around the cache; concurrent sessions must not
// share one Corpus — instead, build one SharedCorpus over the task list
// and hand each session its own view via SharedCorpus.NewSession, which
// keeps the shortlist private while routing fits through the shared
// single-flight cache.
type Corpus struct {
	tasks []CorpusTask
	opts  CorpusOptions
	rec   obs.Recorder

	// shared is the fit cache every materialization goes through: the
	// fleet-wide one for a SharedCorpus view, a private one for NewCorpus.
	shared *SharedCorpus

	activated    bool
	shortlisting bool
	active       []int // ascending task indices

	// memo holds the base posteriors DynamicWeights has computed at the
	// target's observed points since the last Activate.
	memo posteriorMemo

	mu       sync.Mutex
	resident map[int]*BaseLearner

	gShortlist obs.Gauge
	gResident  obs.Gauge
	cFits      obs.Counter
}

// NewCorpus builds a corpus over the given tasks: the one session view of a
// SharedCorpus of its own, whose counters and fit spans go to
// opts.Recorder. Like every view, it memoizes a failed fit and returns the
// same error on every later request for that task.
func NewCorpus(tasks []CorpusTask, opts CorpusOptions) *Corpus {
	return NewSharedCorpus(tasks, opts.Recorder).NewSession(opts)
}

// TasksOf wraps already-fitted learners as corpus tasks whose Fit returns
// the resident learner. A Corpus is single-session state, so a caller that
// fits once and reuses the learners across several tuners gives each tuner
// its own NewCorpus(TasksOf(learners...), opts).
func TasksOf(learners ...*BaseLearner) []CorpusTask {
	tasks := make([]CorpusTask, len(learners))
	for i, bl := range learners {
		tasks[i] = CorpusTask{
			ID:          bl.TaskID,
			MetaFeature: bl.MetaFeature,
			Fit:         func() (*BaseLearner, error) { return bl, nil },
		}
	}
	return tasks
}

// Len returns the corpus size.
func (c *Corpus) Len() int { return len(c.tasks) }

// Resident returns how many fitted learners are currently in memory.
func (c *Corpus) Resident() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.resident)
}

// Shortlisting reports whether the last Activate chose the sublinear
// shortlist path (false on the exact small-corpus fallback).
func (c *Corpus) Shortlisting() bool { return c.shortlisting }

func (c *Corpus) exactThreshold() int {
	switch {
	case c.opts.ExactThreshold > 0:
		return c.opts.ExactThreshold
	case c.opts.ExactThreshold < 0:
		return -1
	default:
		return defaultExactThreshold
	}
}

func (c *Corpus) shortlistK() int {
	if c.opts.ShortlistK > 0 {
		return c.opts.ShortlistK
	}
	return DefaultShortlistK
}

// Activate fixes the session target and computes the shortlist. On the
// exact path (corpus size at or below ExactThreshold) every task is active,
// in corpus order — the configuration the differential tests pin against
// the eager path. Otherwise the top-ShortlistK tasks by meta-feature L2
// distance are active (ascending task order, so downstream floating-point
// accumulation order is stable). Tasks whose meta-feature dimensionality
// differs from the target's — or contains non-finite components — are
// treated as maximally distant and never shortlisted; if no task is
// comparable to the target, the first ShortlistK tasks stand in, keeping
// some transfer rather than none.
func (c *Corpus) Activate(targetMeta []float64) error {
	n := len(c.tasks)
	c.activated = true
	c.memo = posteriorMemo{}
	var sp obs.Span
	if c.rec.Enabled() {
		sp = c.rec.Span("meta.corpus_activate", obs.Int("n", n))
		defer sp.End()
	}
	if thr := c.exactThreshold(); thr < 0 || n > thr {
		c.shortlisting = true
		if err := c.shortlist(targetMeta); err != nil {
			return err
		}
	} else {
		c.shortlisting = false
		c.active = make([]int, n)
		for i := range c.active {
			c.active[i] = i
		}
	}
	c.gShortlist.Set(float64(len(c.active)))
	if sp != nil {
		sp.SetAttrs(obs.Int("active", len(c.active)), obs.Bool("shortlisting", c.shortlisting))
	}
	return nil
}

func (c *Corpus) shortlist(targetMeta []float64) error {
	k := c.shortlistK()
	if k > len(c.tasks) {
		k = len(c.tasks)
	}
	// Only tasks with a comparable, finite meta-feature are rankable.
	comparable := make([]int, 0, len(c.tasks))
	for i, t := range c.tasks {
		if len(targetMeta) == 0 || len(t.MetaFeature) != len(targetMeta) {
			continue
		}
		if !finiteVec(t.MetaFeature) {
			continue
		}
		comparable = append(comparable, i)
	}
	if len(comparable) == 0 || !finiteVec(targetMeta) {
		c.active = make([]int, k)
		for i := range c.active {
			c.active[i] = i
		}
		return nil
	}
	if len(comparable) <= k {
		c.active = comparable
		return nil
	}
	vecs := make([][]float64, len(comparable))
	for j, id := range comparable {
		vecs[j] = c.tasks[id].MetaFeature
	}
	ix, err := NewCorpusIndex(vecs, IndexOptions{Recorder: c.rec})
	if err != nil {
		return fmt.Errorf("meta: building corpus index: %w", err)
	}
	nn, err := ix.TopK(targetMeta, k)
	if err != nil {
		return fmt.Errorf("meta: corpus index query: %w", err)
	}
	ids := make([]int, len(nn))
	for j, nb := range nn {
		ids[j] = comparable[nb.ID]
	}
	sort.Ints(ids)
	c.active = ids
	return nil
}

func finiteVec(v []float64) bool {
	if len(v) == 0 {
		return false
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// ActiveLearners materializes the active tasks' base-learners, fitting any
// not yet resident, and returns them in ascending task order together with
// their task indices. Materialization is the only place fits happen: a
// task outside every shortlist never pays its GP fit or history decode.
func (c *Corpus) ActiveLearners() ([]*BaseLearner, []int, error) {
	if !c.activated {
		if err := c.Activate(nil); err != nil {
			return nil, nil, err
		}
	}
	learners := make([]*BaseLearner, len(c.active))
	for j, id := range c.active {
		bl, err := c.learner(id)
		if err != nil {
			return nil, nil, err
		}
		learners[j] = bl
	}
	ids := append([]int(nil), c.active...)
	return learners, ids, nil
}

func (c *Corpus) learner(id int) (*BaseLearner, error) {
	c.mu.Lock()
	bl, ok := c.resident[id]
	c.mu.Unlock()
	if ok {
		return bl, nil
	}
	// The shared single-flight cache runs each task's fit once, however
	// many sessions ask; the session-local resident map above gives reuse
	// within the session without touching the shared lock.
	bl, err := c.shared.fit(id)
	if err != nil {
		return nil, fmt.Errorf("meta: materializing corpus task %s: %w", c.tasks[id].ID, err)
	}
	c.cFits.Add(1)
	c.mu.Lock()
	c.resident[id] = bl
	c.gResident.Set(float64(len(c.resident)))
	c.mu.Unlock()
	return bl, nil
}

// ScatterWeights expands weights over the active learners (ids, target
// last) into a full corpus-length+1 vector with zeros for every task off
// the shortlist — the fixed-shape view session traces record. On the exact
// path this is the identity.
func (c *Corpus) ScatterWeights(ids []int, w []float64) []float64 {
	out := make([]float64, len(c.tasks)+1)
	for j, id := range ids {
		if j < len(w) {
			out[id] = w[j]
		}
	}
	if len(w) == len(ids)+1 {
		out[len(c.tasks)] = w[len(ids)]
	}
	return out
}

// DynamicWeights is DynamicWeightsOpts for a session: base are the active
// learners (ActiveLearners) and target the session's target learner, whose
// history only grows between calls. Each base learner's posterior at each
// target observation is computed once and kept until the next Activate, so an
// iteration pays only for the newest point; the weights are bit-identical to
// DynamicWeightsOpts'. The memo is re-validated on every call (posteriorMemo)
// and recomputes whatever no longer matches, so a rewritten history or a
// different learner list costs time, never correctness.
func (c *Corpus) DynamicWeights(base []*BaseLearner, target *BaseLearner, opts DynamicOptions, r *rand.Rand) []float64 {
	return dynamicWeights(c.memo.resolve(base, target.History), target, opts, r)
}
