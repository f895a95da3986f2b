package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// LoadPoint is the instantaneous offered-load state of a timeline: a
// multiplier on the workload's client request rate and an additive boost to
// its write fraction (evening batch jobs, replication catch-up, ...). The
// zero boost keeps the workload's own mix.
type LoadPoint struct {
	// RateMult scales the workload's RequestRate. Must be positive.
	RateMult float64
	// WriteBoost is added to the workload's write fraction, clamped so the
	// resulting fraction stays below 1. Must be in [0, 0.95].
	WriteBoost float64
}

// TimelinePhase is one piece of a piecewise-linear load timeline: the load
// ramps linearly from Start to End over Duration (equal endpoints make the
// phase constant).
type TimelinePhase struct {
	// Label names the phase for reporting ("night", "evening-peak", ...).
	Label string
	// Duration is the phase's simulated length. Must be positive:
	// zero-duration phases would make the piecewise map ambiguous at the
	// boundary and are rejected.
	Duration time.Duration
	// Start and End are the loads at the phase boundaries.
	Start, End LoadPoint
}

// Timeline is a piecewise-linear load profile over simulated time — the
// time-varying half of a drifting workload. Playback is time-compressed: a
// 24h timeline is traversed in however many evaluation steps the caller
// maps onto it (core.TimelineEvaluator plays one step per measurement), in
// the spirit of pg_workload's --time-scale simulation mode. Queries past
// Total wrap around, so a timeline models a repeating day.
type Timeline struct {
	phases []TimelinePhase
	total  time.Duration
}

// NewTimeline validates the phases and builds a timeline.
func NewTimeline(phases []TimelinePhase) (*Timeline, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: timeline needs at least one phase")
	}
	var total time.Duration
	for i, p := range phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("workload: timeline phase %d (%q) has non-positive duration %v",
				i, p.Label, p.Duration)
		}
		for _, lp := range []LoadPoint{p.Start, p.End} {
			if err := validLoad(lp); err != nil {
				return nil, fmt.Errorf("workload: timeline phase %d (%q): %w", i, p.Label, err)
			}
		}
		if total > math.MaxInt64-p.Duration {
			return nil, fmt.Errorf("workload: timeline duration overflows at phase %d", i)
		}
		total += p.Duration
	}
	return &Timeline{phases: append([]TimelinePhase(nil), phases...), total: total}, nil
}

func validLoad(lp LoadPoint) error {
	if math.IsNaN(lp.RateMult) || math.IsInf(lp.RateMult, 0) || lp.RateMult <= 0 {
		return fmt.Errorf("rate multiplier %v out of range (must be finite and positive)", lp.RateMult)
	}
	if math.IsNaN(lp.WriteBoost) || lp.WriteBoost < 0 || lp.WriteBoost > 0.95 {
		return fmt.Errorf("write boost %v out of range [0, 0.95]", lp.WriteBoost)
	}
	return nil
}

// Total returns the timeline's full simulated duration (one "day").
func (tl *Timeline) Total() time.Duration { return tl.total }

// At returns the load at simulated time t. Time wraps modulo Total, so the
// timeline models a repeating day; negative t wraps backwards.
func (tl *Timeline) At(t time.Duration) LoadPoint {
	t %= tl.total
	if t < 0 {
		t += tl.total
	}
	for _, p := range tl.phases {
		if t < p.Duration {
			f := float64(t) / float64(p.Duration)
			return LoadPoint{
				RateMult:   p.Start.RateMult + f*(p.End.RateMult-p.Start.RateMult),
				WriteBoost: p.Start.WriteBoost + f*(p.End.WriteBoost-p.Start.WriteBoost),
			}
		}
		t -= p.Duration
	}
	// Unreachable for a validated timeline; keep the last phase's end as a
	// defensive answer.
	return tl.phases[len(tl.phases)-1].End
}

// Bounds returns the component-wise extremes the timeline can yield: lo and
// hi bound every At result (linear interpolation never exits the endpoint
// hull). Playback is guaranteed to stay inside these declared bounds.
func (tl *Timeline) Bounds() (lo, hi LoadPoint) {
	lo = LoadPoint{RateMult: math.Inf(1), WriteBoost: math.Inf(1)}
	hi = LoadPoint{RateMult: math.Inf(-1), WriteBoost: math.Inf(-1)}
	for _, p := range tl.phases {
		for _, e := range []LoadPoint{p.Start, p.End} {
			lo.RateMult = math.Min(lo.RateMult, e.RateMult)
			lo.WriteBoost = math.Min(lo.WriteBoost, e.WriteBoost)
			hi.RateMult = math.Max(hi.RateMult, e.RateMult)
			hi.WriteBoost = math.Max(hi.WriteBoost, e.WriteBoost)
		}
	}
	return lo, hi
}

const hour = time.Hour

// load is a load point of the built-in profiles.
func load(m, b float64) LoadPoint { return LoadPoint{RateMult: m, WriteBoost: b} }

// timelineProfiles is the one name → phases table of the built-in 24h
// timelines, in the order TimelineProfileNames lists them.
var timelineProfiles = []struct {
	name   string
	phases []TimelinePhase
}{
	// The canonical simulated day: a quiet night, a morning ramp into
	// business hours, and a write-heavier evening peak — the regime sequence
	// under which a knob optimal at 2pm can violate SLA at 8pm.
	{"diurnal", []TimelinePhase{
		{Label: "night", Duration: 6 * hour, Start: load(0.35, 0), End: load(0.35, 0)},
		{Label: "morning-ramp", Duration: 2 * hour, Start: load(0.35, 0), End: load(1.0, 0.05)},
		{Label: "business", Duration: 6 * hour, Start: load(1.0, 0.05), End: load(1.0, 0.05)},
		{Label: "lunch-dip", Duration: 1 * hour, Start: load(0.8, 0.05), End: load(0.8, 0.05)},
		{Label: "afternoon", Duration: 3 * hour, Start: load(1.1, 0.05), End: load(1.1, 0.05)},
		{Label: "evening-peak", Duration: 3 * hour, Start: load(1.5, 0.15), End: load(1.5, 0.15)},
		{Label: "wind-down", Duration: 3 * hour, Start: load(1.5, 0.15), End: load(0.4, 0)},
	}},
	// A sharp two-hour overload spike (a flash sale): 2.5x the baseline rate
	// with a write-heavier mix.
	{"spike", []TimelinePhase{
		{Label: "baseline", Duration: 10 * hour, Start: load(1, 0), End: load(1, 0)},
		{Label: "spike", Duration: 2 * hour, Start: load(2.5, 0.10), End: load(2.5, 0.10)},
		{Label: "recovery", Duration: 12 * hour, Start: load(1, 0), End: load(1, 0)},
	}},
	// Steady organic growth: a single linear ramp from half to nearly double
	// the baseline rate — gradual drift with no step boundary for the
	// detector to key on.
	{"ramp", []TimelinePhase{
		{Label: "growth", Duration: 24 * hour, Start: load(0.5, 0), End: load(1.8, 0.08)},
	}},
	// The stationary control: constant unit load. A drift detector must
	// record zero events over it.
	{"flat", []TimelinePhase{
		{Label: "flat", Duration: 24 * hour, Start: load(1, 0), End: load(1, 0)},
	}},
}

// DiurnalTimeline is the canonical simulated 24h day, the "diurnal"
// profile.
func DiurnalTimeline() *Timeline {
	tl, err := TimelineProfile("diurnal")
	if err != nil {
		panic(err) // static profile; unreachable
	}
	return tl
}

// TimelineProfileNames lists the names TimelineProfile accepts.
func TimelineProfileNames() []string {
	names := make([]string, len(timelineProfiles))
	for i, p := range timelineProfiles {
		names[i] = p.name
	}
	return names
}

// TimelineProfile returns the built-in profile a name stands for.
func TimelineProfile(name string) (*Timeline, error) {
	for _, p := range timelineProfiles {
		if p.name == name {
			return NewTimeline(p.phases)
		}
	}
	return nil, fmt.Errorf("workload: unknown timeline profile %q (want one of %s)", name, strings.Join(TimelineProfileNames(), ", "))
}

// TimelineFromCSV parses a load timeline from CSV rows of the form
//
//	offset_seconds,rate_mult[,write_boost]
//
// Each row is a breakpoint; consecutive rows bound a linear segment (the
// pg_workload timeline format). At least two rows are required, the first
// offset must be 0, and offsets must be strictly increasing — unsorted,
// duplicate (overlapping) or zero-length segments are rejected. Lines that
// are empty or start with '#' are skipped.
func TimelineFromCSV(r io.Reader) (*Timeline, error) {
	type row struct {
		off time.Duration
		lp  LoadPoint
	}
	var rows []row
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("workload: timeline CSV line %d: want offset,rate[,write_boost], got %d fields", line, len(fields))
		}
		off, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: timeline CSV line %d: bad offset: %v", line, err)
		}
		if math.IsNaN(off) || math.IsInf(off, 0) || off < 0 || off > 1e9 {
			return nil, fmt.Errorf("workload: timeline CSV line %d: offset %v out of range [0, 1e9] seconds", line, off)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: timeline CSV line %d: bad rate: %v", line, err)
		}
		lp := LoadPoint{RateMult: rate}
		if len(fields) == 3 {
			wb, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("workload: timeline CSV line %d: bad write boost: %v", line, err)
			}
			lp.WriteBoost = wb
		}
		if err := validLoad(lp); err != nil {
			return nil, fmt.Errorf("workload: timeline CSV line %d: %w", line, err)
		}
		rows = append(rows, row{off: time.Duration(off * float64(time.Second)), lp: lp})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: timeline CSV: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("workload: timeline CSV needs at least two breakpoint rows, got %d", len(rows))
	}
	if rows[0].off != 0 {
		return nil, fmt.Errorf("workload: timeline CSV must start at offset 0, got %v", rows[0].off)
	}
	phases := make([]TimelinePhase, 0, len(rows)-1)
	for i := 1; i < len(rows); i++ {
		if rows[i].off <= rows[i-1].off {
			return nil, fmt.Errorf("workload: timeline CSV offsets must be strictly increasing (row %d: %v after %v)",
				i+1, rows[i].off, rows[i-1].off)
		}
		phases = append(phases, TimelinePhase{
			Label:    fmt.Sprintf("csv-%d", i),
			Duration: rows[i].off - rows[i-1].off,
			Start:    rows[i-1].lp,
			End:      rows[i].lp,
		})
	}
	return NewTimeline(phases)
}

// Signature returns a compact meta-feature-style embedding of the workload
// as observable at run time — offered rate, write fraction, per-transaction
// CPU and page costs, data footprint — each log- or ratio-scaled into O(1)
// range. It is the runtime stand-in for the characterizer's query-log
// embedding: cheap enough to recompute every iteration, and comparable with
// MetaFeatureDistance, which is what the drift detector streams over.
func (w Workload) Signature() []float64 {
	return w.AppendSignature(nil)
}

// AppendSignature appends the workload's signature (see Signature) to dst
// and returns the extended slice — the allocation-free variant for callers
// that recompute the signature every iteration into a reused buffer.
func (w Workload) AppendSignature(dst []float64) []float64 {
	p := w.Profile
	logs := func(v, scale float64) float64 {
		if v < 1 {
			v = 1
		}
		return math.Log10(v) / scale
	}
	return append(dst,
		logs(p.RequestRate, 6),
		p.WriteRatio(),
		logs(p.CPUMsPerTxn*1000, 6),
		logs(p.PagesPerTxn, 4),
		logs(float64(p.DataBytes), 12),
	)
}
