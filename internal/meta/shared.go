package meta

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// SharedCorpus is the fleet-scale, copy-on-write complement to Corpus: one
// immutable base-task list plus a shared, read-mostly cache of fitted
// base-learners, served to many concurrent tuning sessions. The "copy" in
// copy-on-write is per-session mutable state only — each session gets its
// own Corpus view (its shortlist and resident set) via NewSession, while
// the expensive parts (task metadata, meta-feature vectors, and above all
// the fitted surrogates) are shared: N sessions tuning similar workloads
// pay ~1 GP fit per base task instead of N.
//
// Fits are single-flight: the first session to request a task's learner
// runs the (deterministic) Fit closure while later requesters block on the
// entry's done channel; the result is published exactly once — the channel
// close is the atomic publish, giving waiters a happens-before edge to the
// fitted learner — and memoized for the corpus lifetime. Because fits are
// deterministic, which session performs one is unobservable in any
// session's trace; and because every predict path below (TriGP, GP,
// ensemble) draws scratch from sync.Pools, the shared learners are safe for
// concurrent prediction from many sessions.
//
// Fit errors are memoized too: a deterministic Fit that failed once would
// fail identically on retry, so every session sees the same error.
type SharedCorpus struct {
	tasks []CorpusTask
	rec   obs.Recorder

	mu   sync.Mutex
	fits map[int]*sharedFit

	hits   atomic.Uint64
	misses atomic.Uint64

	cHits     obs.Counter
	cMisses   obs.Counter
	gResident obs.Gauge
}

// sharedFit is one memoized fit: done closes once bl/err are published.
type sharedFit struct {
	done chan struct{}
	bl   *BaseLearner
	err  error
}

// NewSharedCorpus builds a shared fit cache over the given tasks. The
// recorder (nil records nothing) receives the fleet-level counters
// meta.shared_fit_hits / meta.shared_fit_misses and the resident-learner
// gauge — the dashboard evidence of cross-session amortization.
func NewSharedCorpus(tasks []CorpusTask, rec obs.Recorder) *SharedCorpus {
	r := obs.OrNop(rec)
	return &SharedCorpus{
		tasks:     tasks,
		rec:       r,
		fits:      make(map[int]*sharedFit),
		cHits:     r.Counter("meta.shared_fit_hits"),
		cMisses:   r.Counter("meta.shared_fit_misses"),
		gResident: r.Gauge("meta.shared_fit_resident"),
	}
}

// Len returns the corpus size.
func (s *SharedCorpus) Len() int { return len(s.tasks) }

// Tasks returns the shared task list (callers must treat it as immutable).
func (s *SharedCorpus) Tasks() []CorpusTask { return s.tasks }

// NewSession returns a fresh per-session Corpus view over the shared tasks:
// its shortlist and resident set are private to the session, while learner
// materialization goes through the shared single-flight cache. Safe to call
// concurrently.
func (s *SharedCorpus) NewSession(opts CorpusOptions) *Corpus {
	rec := obs.OrNop(opts.Recorder)
	return &Corpus{
		tasks:      s.tasks,
		opts:       opts,
		rec:        rec,
		shared:     s,
		resident:   make(map[int]*BaseLearner),
		gShortlist: rec.Gauge("meta.corpus_shortlist"),
		gResident:  rec.Gauge("meta.corpus_resident"),
		cFits:      rec.Counter("meta.corpus_fits"),
	}
}

// fit returns task id's fitted learner, computing it at most once across
// every session sharing the corpus.
func (s *SharedCorpus) fit(id int) (*BaseLearner, error) {
	s.mu.Lock()
	if e, ok := s.fits[id]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		s.cHits.Add(1)
		<-e.done
		return e.bl, e.err
	}
	e := &sharedFit{done: make(chan struct{})}
	s.fits[id] = e
	// Set under the lock, so overlapping fits cannot publish sizes out of
	// order and leave the gauge below the resident count.
	s.gResident.Set(float64(len(s.fits)))
	s.mu.Unlock()
	s.misses.Add(1)
	s.cMisses.Add(1)
	var sp obs.Span
	if s.rec.Enabled() {
		sp = s.rec.Span("meta.shared_fit", obs.String("task", s.tasks[id].ID))
	}
	e.bl, e.err = s.tasks[id].Fit()
	if sp != nil {
		sp.End()
	}
	close(e.done)
	return e.bl, e.err
}

// Stats returns how many learner requests hit the shared cache (including
// joins on an in-flight fit) versus missed (ran the fit).
func (s *SharedCorpus) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// HitRate returns hits / (hits + misses), or 0 before any request — the
// FleetBench acceptance metric for cross-session amortization.
func (s *SharedCorpus) HitRate() float64 {
	h, m := s.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
