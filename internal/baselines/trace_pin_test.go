package baselines

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// methodTrace renders a baseline session as text: the SLA thresholds, then
// per iteration the θ bits, the res/tps/lat bits, the phase and the
// feasibility verdict. LoadMult is deliberately left out: for a stationary
// evaluator it carries no information (a hand-rolled baseline loop leaves it
// 0, a core.Session records 1), and the trace must survive that difference.
func methodTrace(res *core.Result) string {
	s := fmt.Sprintf("%s sla=%x/%x\n", res.Method, res.SLA.LambdaTps, res.SLA.LambdaLat)
	for _, it := range res.Iterations {
		o := it.Observation
		s += fmt.Sprintf("%d %s theta=%x res=%x tps=%x lat=%x feasible=%v\n",
			it.Index, it.Phase, o.Theta, o.Res, o.Tps, o.Lat, it.Feasible)
	}
	return s
}

// Per-method trace digests, recorded on amd64 while every baseline still ran
// its own Run loop over baselines.session. Floating-point contraction
// differs across architectures, so the literals are only asserted on amd64.
const (
	defaultTraceSHA256   = "6ad802eadd9e71c30f9506364838209c3912e5826811f90d7e558821aba3b60f"
	iTunedTraceSHA256    = "34f02b6d46cb90cc7f2e850b2e5c8b8f70cf77dd5a7bea8e22b52deaa3518fcb"
	penaltyTraceSHA256   = "4fd70d24175b01b6376f6a00783171b5cb24afc9e2391a9af8f4d44b6b03445d"
	otterTuneTraceSHA256 = "bafc651e1f8298318fa392ad7308d8c7bf09560932426bde3ccdc2c4f529c444"
	cdbTuneTraceSHA256   = "c835b4c7f90d9db467c94bc9d98f770280acb117508800222e1f3971f1e4493c"
	gridTraceSHA256      = "e1060e5f848d03491537eb68f5a243bc68db84e3b5c3db9fb5c406d318ef8c8d"
)

// TestMethodTracesPinned holds each comparison method's session on the
// Twitter case-study task to a recorded digest, so moving the methods onto
// another loop cannot change a single measured configuration.
func TestMethodTracesPinned(t *testing.T) {
	tasks := buildTaskRecords(t, []workload.Workload{
		workload.TwitterVariant(1), workload.TPCC(200),
	}, "A", 31)
	for _, c := range []struct {
		method string
		seed   int64
		iters  int
		want   string
	}{
		{"Default", 11, 4, defaultTraceSHA256},
		{"iTuned", 12, 14, iTunedTraceSHA256},
		{"Penalty-BO", 13, 14, penaltyTraceSHA256},
		{"OtterTune-w-Con", 14, 14, otterTuneTraceSHA256},
		{"CDBTune-w-Con", 15, 12, cdbTuneTraceSHA256},
		{"GridSearch", 16, 0, gridTraceSHA256},
	} {
		res, err := newMethod(c.method, c.seed, tasks).Run(twitterEv(c.seed), c.iters)
		if err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		if res.Method != c.method {
			t.Fatalf("%s: session reports method %q", c.method, res.Method)
		}
		if runtime.GOARCH != "amd64" {
			continue
		}
		trace := methodTrace(res)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(trace))); got != c.want {
			t.Errorf("%s session diverges from its recorded trace: sha256 %s, want %s\n%s",
				c.method, got, c.want, trace)
		}
	}
}
