package experiments

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// sessionCounter counts the core.session spans emitted into it.
type sessionCounter struct{ n atomic.Int64 }

func (c *sessionCounter) Emit(e obs.Event) {
	if e.Type == "span" && e.Name == "core.session" {
		c.n.Add(1)
	}
}

// TestRecorderReachesEverySession checks that Params.Recorder is handed to
// every session an experiment runs — ResTune's, its ablations' and the
// baselines' — and that a live recorder leaves the report unchanged.
func TestRecorderReachesEverySession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments")
	}
	for _, tc := range []struct {
		id       string
		sessions int64
	}{
		{"fig6", 7},             // six methods and ResTune-w/o-Workload
		{"fig9", 36},            // six panels of six methods
		{"ablation-weights", 4}, // four weight schemas
	} {
		var c sessionCounter
		p := tiny()
		p.Recorder = obs.NewRegistry(&c)
		r, err := Run(tc.id, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if got := c.n.Load(); got != tc.sessions {
			t.Errorf("%s: recorder saw %d core.session spans, want %d", tc.id, got, tc.sessions)
		}
		if runtime.GOARCH == "amd64" && reportDigest(r) != reportDigests[tc.id] {
			t.Errorf("%s: report with a live recorder differs from the pinned one", tc.id)
		}
	}
}
