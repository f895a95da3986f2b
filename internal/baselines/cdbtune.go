package baselines

import (
	"time"

	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/rng"
)

// CDBTuneWCon is the CDBTune-with-constraints baseline: a DDPG agent
// mapping internal metrics (state) to knob settings (action), with the
// paper's two reward modifications for resource-oriented tuning
// (Section 7, baselines list):
//
//  1. latency in the original reward is replaced by resource utilization;
//  2. a positive reward (resource decreased) that violates the SLA is
//     zeroed, and a negative reward (resource increased) that still meets
//     the SLA is zeroed.
//
// As in the paper, the method learns slowly: the tuning problem is not
// really an MDP (the optimal configuration is independent of the internal
// metrics), so hundreds of iterations may pass before the policy is useful.
type CDBTuneWCon struct {
	// Seed drives the session's randomness.
	Seed int64
}

// trainSteps is the number of minibatch updates per iteration.
const trainSteps = 8

// NewCDBTuneWCon returns the baseline with paper-scaled settings (the
// agent runs at rl.DefaultConfig).
func NewCDBTuneWCon(seed int64) *CDBTuneWCon {
	return &CDBTuneWCon{Seed: seed}
}

// Name implements core.Tuner.
func (t *CDBTuneWCon) Name() string { return "CDBTune-w-Con" }

// Run implements core.Tuner.
func (t *CDBTuneWCon) Run(ev core.Evaluator, iters int) (*core.Result, error) {
	s := newSession(ev, t.Name())
	dim := ev.Space().Dim()
	r := rng.Derive(t.Seed, "cdbtune")

	defInternal := s.res.DefaultMeasurement.Internal
	normalize := func(internal []float64) []float64 {
		state := make([]float64, len(defInternal))
		for i := range state {
			d := defInternal[i]
			if d == 0 {
				d = 1
			}
			v := internal[i] / d // 1.0 == default behaviour
			if v > 5 {
				v = 5
			}
			state[i] = v / 5
		}
		return state
	}

	agent := rl.New(len(defInternal), dim, rl.DefaultConfig(), r)
	state := normalize(defInternal)
	res0 := s.res.Iterations[0].Observation.Res
	resPrev := res0

	for iter := 1; iter <= iters; iter++ {
		tRec := time.Now()
		action := agent.Act(state)
		recommend := time.Since(tRec)

		s.evaluate(action, "rl", 0, recommend)
		it := s.res.Iterations[len(s.res.Iterations)-1]
		obsRes := it.Observation.Res

		// --- Modified CDBTune reward.
		delta0 := (res0 - obsRes) / res0
		deltaPrev := (resPrev - obsRes) / resPrev
		reward := delta0 + deltaPrev
		if reward > 0 && !it.Feasible {
			reward = 0 // saved resources by breaking the SLA: worthless
		}
		if reward < 0 && it.Feasible {
			reward = 0 // spent more resources but kept the SLA: neutral
		}
		resPrev = obsRes

		next := normalize(it.Measurement.Internal)
		tModel := time.Now()
		agent.Observe(rl.Transition{State: state, Action: action, Reward: reward, NextState: next})
		agent.Train(trainSteps)
		s.res.Iterations[len(s.res.Iterations)-1].ModelUpdate = time.Since(tModel)
		state = next
	}
	return s.res, nil
}
