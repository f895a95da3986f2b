package baselines

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

// failingUpdate is a policy whose model update fails at one iteration.
type failingUpdate struct {
	core.Policy
	at int
}

var errUpdate = errors.New("injected update failure")

func (f failingUpdate) Update(v *core.View) error {
	if v.Iter == f.at {
		return errUpdate
	}
	return f.Policy.Update(v)
}

// timeless returns a copy of res with the stage timings zeroed: the only
// fields two runs of one session may disagree on.
func timeless(res *core.Result) *core.Result {
	out := *res
	out.Iterations = append([]core.Iteration(nil), res.Iterations...)
	for i := range out.Iterations {
		it := &out.Iterations[i]
		it.ModelUpdate, it.Recommend, it.Replay = 0, 0, 0
	}
	return &out
}

// TestBaselinesUnderFleet runs comparison methods as core.Fleet specs beside
// ResTune-w/o-ML: at GOMAXPROCS 1 and 8 every session's result must equal
// its solo Run bit for bit, and a spec whose policy fails its model update
// must fail alone.
func TestBaselinesUnderFleet(t *testing.T) {
	const iters = 13
	seeds := []int64{21, 22}
	methods := []struct {
		name   string
		policy func() core.Policy
		solo   func(core.Config) core.Tuner
	}{
		{"iTuned", func() core.Policy { return &iTuned{lhsStart: lhsStart{stream: "ituned"}} }, NewITuned},
		{"Penalty-BO", func() core.Policy { return &penaltyBO{lhsStart: lhsStart{stream: "penalty"}} }, NewPenaltyBO},
		{"ResTune-w/o-ML", func() core.Policy { return nil }, func(cfg core.Config) core.Tuner {
			cfg.Name = "ResTune-w/o-ML"
			return core.New(cfg)
		}},
	}

	var want []*core.Result
	for _, m := range methods {
		for _, seed := range seeds {
			res, err := m.solo(testConfig(seed)).Run(twitterEv(seed), iters)
			if err != nil {
				t.Fatalf("%s seed %d solo: %v", m.name, seed, err)
			}
			want = append(want, timeless(res))
		}
	}

	specs := func() []core.SessionSpec {
		var specs []core.SessionSpec
		for _, m := range methods {
			for _, seed := range seeds {
				cfg := testConfig(seed)
				cfg.Name, cfg.Policy = m.name, m.policy()
				specs = append(specs, core.SessionSpec{
					Name: fmt.Sprintf("%s/%d", m.name, seed), Config: cfg, Evaluator: twitterEv(seed), Iters: iters,
				})
			}
		}
		// One more iTuned session fails once its model is first fitted.
		cfg := testConfig(seeds[0])
		cfg.Name, cfg.Policy = "iTuned", failingUpdate{methods[0].policy(), 11}
		return append(specs, core.SessionSpec{Name: "failing", Config: cfg, Evaluator: twitterEv(seeds[0]), Iters: iters})
	}

	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		results := core.NewFleet(core.FleetConfig{}).Run(specs())
		runtime.GOMAXPROCS(old)

		failed := results[len(results)-1]
		if !errors.Is(failed.Err, errUpdate) || failed.Result != nil {
			t.Fatalf("GOMAXPROCS=%d: failing spec returned err %v, result %v", procs, failed.Err, failed.Result)
		}
		for i, w := range want {
			r := results[i]
			if r.Err != nil {
				t.Fatalf("GOMAXPROCS=%d: %s: %v", procs, r.Name, r.Err)
			}
			if got := timeless(r.Result); !reflect.DeepEqual(got, w) {
				t.Fatalf("GOMAXPROCS=%d: %s differs from its solo run:\n--- solo\n%s\n--- fleet\n%s",
					procs, r.Name, methodTrace(w), methodTrace(got))
			}
		}
	}
}
