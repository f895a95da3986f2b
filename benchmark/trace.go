package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// tracer keeps a traced run's spans and counts in memory and writes them
// out when the workload ends. The benchmark opens its own spans (workload,
// session, step, measure) around its calls into the program, and hands the
// program one recorder per session, so that the spans the program already
// emits land under the innermost open span of the session that caused them.
// A nil *tracer is the untraced run: every method is a no-op and the program
// gets no recorder at all.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// selfNs is the time spent inside the tracer itself, the numerator of
	// obs.trace_overhead_pct.
	selfNs atomic.Int64
	events atomic.Int64

	mu       sync.Mutex
	sessions []*sessionTrace
	counters map[string]*traceCounter
	gauges   map[string]*traceGauge
	hists    map[string]*traceHist

	root *sessionTrace
}

// spanRec is one finished or open span. Session is the id shared by all
// spans of one tuning session (0 for the workload's own spans).
type spanRec struct {
	ID, Parent, Session int64
	Name                string
	Start, End          time.Duration
	Attrs               []obs.Attr
}

func newTracer() *tracer {
	t := &tracer{
		epoch:    time.Now(),
		counters: map[string]*traceCounter{},
		gauges:   map[string]*traceGauge{},
		hists:    map[string]*traceHist{},
	}
	t.root = &sessionTrace{t: t}
	t.sessions = append(t.sessions, t.root)
	return t
}

// session returns the recorder of a new tuning session whose spans hang
// under the workload's currently open span.
func (t *tracer) session() *sessionTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &sessionTrace{t: t, id: int64(len(t.sessions)), rootParent: t.root.innermost()}
	t.sessions = append(t.sessions, st)
	return st
}

// workload returns the recorder for spans that belong to no single session
// (the workload span itself, fleet scheduling, the shared corpus).
func (t *tracer) workload() *sessionTrace {
	if t == nil {
		return nil
	}
	return t.root
}

// sessionTrace implements obs.Recorder for one session. Spans may be opened
// and closed from the goroutines the program fans out to, so the open-span
// stack is locked.
type sessionTrace struct {
	t          *tracer
	id         int64
	rootParent int64

	mu    sync.Mutex
	spans []spanRec
	open  []int // indices into spans, innermost last
}

// recorder returns the session's obs.Recorder, or nil (meaning none) in an
// untraced run. It exists because a nil *sessionTrace stored in an
// interface would not compare equal to nil inside the program.
func (s *sessionTrace) recorder() obs.Recorder {
	if s == nil {
		return nil
	}
	return s
}

func (s *sessionTrace) innermost() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.open) == 0 {
		return s.rootParent
	}
	return s.spans[s.open[len(s.open)-1]].ID
}

type liveSpan struct {
	s   *sessionTrace
	idx int
}

// begin opens a benchmark-owned span; it is Span under a name that reads
// better at the call sites in adapter.go, and is safe on a nil receiver.
func (s *sessionTrace) begin(name string, attrs ...obs.Attr) obs.Span {
	if s == nil {
		return nopSpan{}
	}
	return s.Span(name, attrs...)
}

type nopSpan struct{}

func (nopSpan) SetAttrs(...obs.Attr) {}
func (nopSpan) End()                 {}

func (s *sessionTrace) Enabled() bool { return true }

func (s *sessionTrace) Span(name string, attrs ...obs.Attr) obs.Span {
	now := time.Now()
	s.mu.Lock()
	parent := s.rootParent
	if n := len(s.open); n > 0 {
		parent = s.spans[s.open[n-1]].ID
	}
	idx := len(s.spans)
	s.spans = append(s.spans, spanRec{
		ID: s.t.nextID.Add(1), Parent: parent, Session: s.id,
		Name: name, Start: now.Sub(s.t.epoch), End: -1, Attrs: attrs,
	})
	s.open = append(s.open, idx)
	s.mu.Unlock()
	s.t.events.Add(1)
	s.t.selfNs.Add(int64(time.Since(now)))
	return liveSpan{s, idx}
}

func (l liveSpan) SetAttrs(attrs ...obs.Attr) {
	l.s.mu.Lock()
	sp := &l.s.spans[l.idx]
	sp.Attrs = append(sp.Attrs, attrs...)
	l.s.mu.Unlock()
}

func (l liveSpan) End() {
	now := time.Now()
	s := l.s
	s.mu.Lock()
	if sp := &s.spans[l.idx]; sp.End < 0 {
		sp.End = now.Sub(s.t.epoch)
		for i := len(s.open) - 1; i >= 0; i-- {
			if s.open[i] != l.idx {
				continue
			}
			// A child still open outlives this span (the program's
			// core.session opens inside the first step and closes in the
			// last): hand it to this span's parent, or its time would be
			// clipped here and counted as the parent's own.
			for _, j := range s.open[i+1:] {
				if s.spans[j].Parent == sp.ID {
					s.spans[j].Parent = sp.Parent
				}
			}
			s.open = append(s.open[:i], s.open[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.t.selfNs.Add(int64(time.Since(now)))
}

type traceCounter struct{ v atomic.Uint64 }

func (c *traceCounter) Add(d uint64) { c.v.Add(d) }

type traceGauge struct {
	mu sync.Mutex
	v  float64
}

func (g *traceGauge) Set(v float64) { g.mu.Lock(); g.v = v; g.mu.Unlock() }

// traceHist keeps count and sum only: the benchmark reads means off the
// program's histograms, never bucket shapes.
type traceHist struct {
	mu    sync.Mutex
	count uint64
	sum   float64
}

func (h *traceHist) Observe(v float64) { h.mu.Lock(); h.count++; h.sum += v; h.mu.Unlock() }

// Counters, gauges and histograms are named per tracer, not per session:
// the program registers the same names from every session and the layer
// metrics want their totals.
func (s *sessionTrace) Counter(name string) obs.Counter {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.counters[name]
	if !ok {
		c = &traceCounter{}
		t.counters[name] = c
	}
	return c
}

func (s *sessionTrace) Gauge(name string) obs.Gauge {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &traceGauge{}
		t.gauges[name] = g
	}
	return g
}

func (s *sessionTrace) Histogram(name string, _ []float64) obs.Histogram {
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &traceHist{}
		t.hists[name] = h
	}
	return h
}

func (s *sessionTrace) Flush() error { return nil }

// allSpans returns every finished span, ordered by start time.
func (t *tracer) allSpans() []spanRec {
	t.mu.Lock()
	sessions := append([]*sessionTrace(nil), t.sessions...)
	t.mu.Unlock()
	var out []spanRec
	for _, s := range sessions {
		s.mu.Lock()
		for _, sp := range s.spans {
			if sp.End >= 0 {
				out = append(out, sp)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns, per span id, the span's duration minus the union of
// the intervals its children cover: children that ran in parallel are not
// subtracted twice, and a child is clipped to its parent.
func selfTimes(spans []spanRec) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := map[int64][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, sp := range spans {
		ivs := children[sp.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered := time.Duration(0)
		cur := sp.Start
		for _, c := range ivs {
			lo, hi := c.lo, c.hi
			if lo < cur {
				lo = cur
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[sp.ID] = sp.End - sp.Start - covered
	}
	return self
}

// spanTotals sums duration and self time per span name.
type spanTotal struct {
	Count       int
	Total, Self time.Duration
}

func spanTotals(spans []spanRec) map[string]spanTotal {
	self := selfTimes(spans)
	out := map[string]spanTotal{}
	for _, sp := range spans {
		t := out[sp.Name]
		t.Count++
		t.Total += sp.End - sp.Start
		t.Self += self[sp.ID]
		out[sp.Name] = t
	}
	return out
}

// writeJSONL writes one line per span (with its self time) and one per
// counter, gauge and histogram.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	spans := t.allSpans()
	self := selfTimes(spans)
	for _, sp := range spans {
		line := map[string]any{
			"t": "span", "id": sp.ID, "parent": sp.Parent, "session": sp.Session,
			"name":     sp.Name,
			"start_us": us(sp.Start), "end_us": us(sp.End), "self_us": us(self[sp.ID]),
		}
		if len(sp.Attrs) > 0 {
			attrs := make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Value
			}
			line["attrs"] = attrs
		}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range sortedKeys(t.counters) {
		if err := enc.Encode(map[string]any{"t": "counter", "name": name, "v": t.counters[name].v.Load()}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	for _, name := range sortedKeys(t.gauges) {
		g := t.gauges[name]
		g.mu.Lock()
		v := g.v
		g.mu.Unlock()
		if err := enc.Encode(map[string]any{"t": "gauge", "name": name, "v": v}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	for _, name := range sortedKeys(t.hists) {
		h := t.hists[name]
		h.mu.Lock()
		count, sum := h.count, h.sum
		h.mu.Unlock()
		if err := enc.Encode(map[string]any{"t": "hist", "name": name, "count": count, "sum": sum}); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return bw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
