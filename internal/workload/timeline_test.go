package workload

import (
	"math"
	"strings"
	"testing"
	"time"
)

func mustTimeline(t *testing.T, phases []TimelinePhase) *Timeline {
	t.Helper()
	tl, err := NewTimeline(phases)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestNewTimelineValidation(t *testing.T) {
	ok := TimelinePhase{Label: "ok", Duration: time.Hour,
		Start: LoadPoint{RateMult: 1}, End: LoadPoint{RateMult: 2}}
	for _, tc := range []struct {
		name   string
		phases []TimelinePhase
		want   string
	}{
		{"empty", nil, "at least one phase"},
		{"zero duration", []TimelinePhase{{Label: "z", Start: ok.Start, End: ok.End}},
			"non-positive duration"},
		{"negative duration", []TimelinePhase{{Label: "n", Duration: -time.Second,
			Start: ok.Start, End: ok.End}}, "non-positive duration"},
		{"zero rate", []TimelinePhase{{Label: "r", Duration: time.Hour,
			Start: LoadPoint{}, End: ok.End}}, "rate multiplier"},
		{"NaN rate", []TimelinePhase{{Label: "r", Duration: time.Hour,
			Start: LoadPoint{RateMult: math.NaN()}, End: ok.End}}, "rate multiplier"},
		{"negative boost", []TimelinePhase{{Label: "b", Duration: time.Hour,
			Start: LoadPoint{RateMult: 1, WriteBoost: -0.1}, End: ok.End}}, "write boost"},
		{"boost above cap", []TimelinePhase{{Label: "b", Duration: time.Hour,
			Start: ok.Start, End: LoadPoint{RateMult: 1, WriteBoost: 0.96}}}, "write boost"},
		{"overflow", []TimelinePhase{
			{Label: "a", Duration: math.MaxInt64 - 1, Start: ok.Start, End: ok.End},
			{Label: "b", Duration: time.Hour, Start: ok.Start, End: ok.End},
		}, "overflows"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewTimeline(tc.phases)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := NewTimeline([]TimelinePhase{ok}); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
}

func TestTimelineAtInterpolatesAndWraps(t *testing.T) {
	tl := mustTimeline(t, []TimelinePhase{
		{Label: "ramp", Duration: 2 * time.Hour,
			Start: LoadPoint{RateMult: 1}, End: LoadPoint{RateMult: 3, WriteBoost: 0.2}},
		{Label: "hold", Duration: time.Hour,
			Start: LoadPoint{RateMult: 3, WriteBoost: 0.2}, End: LoadPoint{RateMult: 3, WriteBoost: 0.2}},
	})
	if got := tl.Total(); got != 3*time.Hour {
		t.Fatalf("Total = %v, want 3h", got)
	}
	if lp := tl.At(0); lp.RateMult != 1 || lp.WriteBoost != 0 {
		t.Fatalf("At(0) = %+v", lp)
	}
	if lp := tl.At(time.Hour); lp.RateMult != 2 || lp.WriteBoost != 0.1 {
		t.Fatalf("midpoint not interpolated: %+v", lp)
	}
	if lp := tl.At(2*time.Hour + 30*time.Minute); lp.RateMult != 3 {
		t.Fatalf("hold phase load: %+v", lp)
	}
	// Wrapping: one full day later is the same load; negative time wraps back.
	if a, b := tl.At(time.Hour), tl.At(time.Hour+3*time.Hour); a != b {
		t.Fatalf("wrap forward: %+v vs %+v", a, b)
	}
	if a, b := tl.At(-time.Hour), tl.At(2*time.Hour); a != b {
		t.Fatalf("wrap backward: %+v vs %+v", a, b)
	}
}

func TestTimelineBounds(t *testing.T) {
	tl := mustTimeline(t, []TimelinePhase{
		{Label: "a", Duration: time.Hour,
			Start: LoadPoint{RateMult: 0.5}, End: LoadPoint{RateMult: 2, WriteBoost: 0.3}},
		{Label: "b", Duration: time.Hour,
			Start: LoadPoint{RateMult: 2, WriteBoost: 0.3}, End: LoadPoint{RateMult: 1.2, WriteBoost: 0.1}},
	})
	lo, hi := tl.Bounds()
	if lo.RateMult != 0.5 || hi.RateMult != 2 || lo.WriteBoost != 0 || hi.WriteBoost != 0.3 {
		t.Fatalf("Bounds = %+v, %+v", lo, hi)
	}
	// Every sampled playback point stays inside the declared bounds.
	for dt := time.Duration(0); dt < tl.Total(); dt += 7 * time.Minute {
		lp := tl.At(dt)
		if lp.RateMult < lo.RateMult || lp.RateMult > hi.RateMult ||
			lp.WriteBoost < lo.WriteBoost || lp.WriteBoost > hi.WriteBoost {
			t.Fatalf("At(%v) = %+v escapes bounds [%+v, %+v]", dt, lp, lo, hi)
		}
	}
}

func TestTimelineProfiles(t *testing.T) {
	names := TimelineProfileNames()
	if len(names) == 0 {
		t.Fatal("no built-in profiles")
	}
	for _, name := range names {
		tl, err := TimelineProfile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tl.Total() != 24*time.Hour {
			t.Fatalf("%s spans %v, want 24h", name, tl.Total())
		}
	}
	// The error names every built-in profile, read from the same table.
	_, err := TimelineProfile("weekend")
	if err == nil || !strings.Contains(err.Error(), "unknown timeline profile") ||
		!strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Fatalf("unknown profile error: %v", err)
	}
}

func TestTimelineFromCSV(t *testing.T) {
	tl, err := TimelineFromCSV(strings.NewReader(
		"# load schedule\n0,1\n3600, 2, 0.1\n\n7200,1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tl.Total(); got != 2*time.Hour {
		t.Fatalf("Total = %v, want 2h", got)
	}
	if lp := tl.At(30 * time.Minute); lp.RateMult != 1.5 || lp.WriteBoost != 0.05 {
		t.Fatalf("segment interpolation: %+v", lp)
	}

	for _, tc := range []struct{ name, csv, want string }{
		{"one row", "0,1\n", "at least two"},
		{"empty", "# only comments\n", "at least two"},
		{"nonzero first offset", "10,1\n20,2\n", "start at offset 0"},
		{"duplicate offsets", "0,1\n100,2\n100,3\n", "strictly increasing"},
		{"unsorted offsets", "0,1\n200,2\n100,3\n", "strictly increasing"},
		{"bad field count", "0,1\n100,2,0.1,zzz\n", "fields"},
		{"bad offset", "x,1\n100,2\n", "bad offset"},
		{"negative offset", "-5,1\n100,2\n", "out of range"},
		{"huge offset", "0,1\n2e9,2\n", "out of range"},
		{"bad rate", "0,zero\n100,2\n", "bad rate"},
		{"zero rate", "0,0\n100,2\n", "rate multiplier"},
		{"bad boost", "0,1,nope\n100,2\n", "bad write boost"},
		{"boost out of range", "0,1,0.99\n100,2\n", "write boost"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := TimelineFromCSV(strings.NewReader(tc.csv))
			if err == nil {
				t.Fatal("expected parse error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestWorkloadSignatureTracksLoad(t *testing.T) {
	w := Twitter()
	a := w.Signature()
	b := w.Signature()
	if len(a) == 0 {
		t.Fatal("empty signature")
	}
	if MetaFeatureDistance(a, b) != 0 {
		t.Fatal("signature not deterministic")
	}
	// The load transform core.TimelineEvaluator applies before streaming the
	// signature.
	heavy := w
	heavy.Profile = w.Profile.AtLoad(2.5, 0.2)
	heavier := heavy.Signature()
	if d := MetaFeatureDistance(a, heavier); d <= 0 {
		t.Fatalf("load shift invisible to signature (distance %v)", d)
	}
	for _, v := range heavier {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("signature has non-finite component: %v", heavier)
		}
	}
}

// FuzzTimeline drives the CSV loader (the only boundary that accepts
// untrusted timeline input) with arbitrary text. Malformed schedules —
// zero-duration segments, unsorted or overlapping rows, out-of-range loads —
// must be rejected with an error, never a panic; every accepted timeline must
// satisfy the playback contract: positive total duration, positive-duration
// phases, and every sampled At result inside the declared Bounds.
func FuzzTimeline(f *testing.F) {
	f.Add("0,1\n3600,2,0.1\n7200,1\n")
	f.Add("0,0.5\n86400,1.8,0.08\n")
	f.Add("# comment\n\n0,1\n10,1\n")
	f.Add("0,1\n10,2\n10,3\n")   // duplicate offset: overlapping segment
	f.Add("0,1\n200,2\n100,3\n") // unsorted rows
	f.Add("0,1\n")               // single breakpoint: zero segments
	f.Add("5,1\n10,2\n")         // does not start at 0
	f.Add("0,-1\n10,2\n")        // negative rate
	f.Add("0,NaN\n10,2\n")
	f.Add("0,1,0.99\n10,2\n")
	f.Add("0,1\n1e12,2\n")
	f.Fuzz(func(t *testing.T, csv string) {
		tl, err := TimelineFromCSV(strings.NewReader(csv))
		if err != nil {
			return
		}
		if tl.Total() <= 0 {
			t.Fatalf("accepted timeline has non-positive total %v", tl.Total())
		}
		lo, hi := tl.Bounds()
		for _, p := range tl.phases {
			if p.Duration <= 0 {
				t.Fatalf("accepted timeline has non-positive phase duration %v", p.Duration)
			}
		}
		for i := 0; i <= 64; i++ {
			dt := time.Duration(float64(tl.Total()) * float64(i) / 64)
			lp := tl.At(dt)
			if math.IsNaN(lp.RateMult) || lp.RateMult < lo.RateMult-1e-9 || lp.RateMult > hi.RateMult+1e-9 {
				t.Fatalf("At(%v).RateMult = %v outside declared bounds [%v, %v]",
					dt, lp.RateMult, lo.RateMult, hi.RateMult)
			}
			if math.IsNaN(lp.WriteBoost) || lp.WriteBoost < lo.WriteBoost-1e-9 || lp.WriteBoost > hi.WriteBoost+1e-9 {
				t.Fatalf("At(%v).WriteBoost = %v outside declared bounds [%v, %v]",
					dt, lp.WriteBoost, lo.WriteBoost, hi.WriteBoost)
			}
			if lp.RateMult <= 0 || lp.WriteBoost < 0 || lp.WriteBoost > 0.95 {
				t.Fatalf("At(%v) = %+v escapes the valid load range", dt, lp)
			}
		}
	})
}
