// Package obs is the repository's dependency-free observability layer:
// wall-time spans with typed attributes, plus counters, gauges and
// fixed-bucket histograms, behind one small Recorder interface.
//
// The design contract (DESIGN.md §8) is injection, never globals: every
// instrumented component carries a Recorder it was handed through its
// config or constructor, defaulting to Nop. The Nop implementation is a
// zero-size struct whose methods do nothing, so an uninstrumented run pays
// only a nil-free interface call on paths that record — and hot paths that
// would otherwise read a clock gate on Recorder.Enabled() so the Nop
// configuration never calls time.Now at all. Telemetry is strictly
// write-only with respect to tuning decisions: recorded timestamps and
// durations go into the event stream and are never read back, which is
// what keeps the GOMAXPROCS determinism and golden-trace contracts intact
// with a live recorder attached.
package obs

// Attr is one typed span attribute.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Floats returns a float-vector attribute (the slice is copied, so callers
// may keep mutating theirs).
func Floats(k string, v []float64) Attr {
	return Attr{Key: k, Value: append([]float64(nil), v...)}
}

// Span is an in-flight timed operation. Spans are owned by one goroutine;
// SetAttrs and End must not race with each other.
type Span interface {
	// SetAttrs attaches attributes to the span.
	SetAttrs(attrs ...Attr)
	// End closes the span, recording its wall-clock duration.
	End()
}

// Counter is a monotonically increasing count.
type Counter interface{ Add(delta uint64) }

// Gauge is a point-in-time value.
type Gauge interface{ Set(v float64) }

// Histogram accumulates observations into fixed buckets.
type Histogram interface{ Observe(v float64) }

// Recorder is the injection point every instrumented component carries.
// Implementations must be safe for concurrent use.
type Recorder interface {
	// Enabled reports whether the recorder actually records. Hot paths use
	// it to skip clock reads and attribute construction under Nop.
	Enabled() bool
	// Span starts a timed span.
	Span(name string, attrs ...Attr) Span
	// Counter returns the named counter, creating it on first use. Handles
	// are stable: components fetch them once at construction and hold them.
	Counter(name string) Counter
	// Gauge returns the named gauge, creating it on first use.
	Gauge(name string) Gauge
	// Histogram returns the named histogram with the given ascending bucket
	// upper bounds (an extra overflow bucket is implicit), creating it on
	// first use. Later calls with the same name reuse the first buckets.
	Histogram(name string, buckets []float64) Histogram
	// Flush emits a snapshot event for every metric registered so far.
	Flush() error
}

// nop implements Recorder, Span, Counter, Gauge and Histogram as no-ops on
// a zero-size value, so every handle it returns is allocation-free.
type nop struct{}

func (nop) Enabled() bool                         { return false }
func (nop) Span(string, ...Attr) Span             { return nop{} }
func (nop) Counter(string) Counter                { return nop{} }
func (nop) Gauge(string) Gauge                    { return nop{} }
func (nop) Histogram(string, []float64) Histogram { return nop{} }
func (nop) Flush() error                          { return nil }
func (nop) SetAttrs(...Attr)                      {}
func (nop) End()                                  {}
func (nop) Add(uint64)                            {}
func (nop) Set(float64)                           {}
func (nop) Observe(float64)                       {}

// Nop is the recorder that records nothing.
var Nop Recorder = nop{}

// OrNop returns r, or Nop when r is nil — the idiom for optional Recorder
// config fields.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous — the usual shape for latency and
// size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}
