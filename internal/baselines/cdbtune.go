package baselines

import (
	"repro/internal/core"
	"repro/internal/rl"
	"repro/internal/rng"
)

// NewCDBTuneWCon returns the CDBTune-with-constraints baseline: a DDPG
// agent (at rl.DefaultConfig) mapping internal metrics (state) to knob
// settings (action), with the paper's two reward modifications for
// resource-oriented tuning (Section 7, baselines list):
//
//  1. latency in the original reward is replaced by resource utilization;
//  2. a positive reward (resource decreased) that violates the SLA is
//     zeroed, and a negative reward (resource increased) that still meets
//     the SLA is zeroed.
//
// As in the paper, the method learns slowly: the tuning problem is not
// really an MDP (the optimal configuration is independent of the internal
// metrics), so hundreds of iterations may pass before the policy is useful.
func NewCDBTuneWCon(cfg core.Config) core.Tuner {
	return withPolicy(cfg, "CDBTune-w-Con", &cdbTune{})
}

// trainSteps is the number of minibatch updates per iteration.
const trainSteps = 8

type cdbTune struct {
	agent       *rl.DDPG
	defInternal []float64
	// state is the normalized internal metrics the next action is chosen
	// in; action is the last action taken; res0 and resPrev are the default's
	// and the last iteration's resource readings the reward compares with.
	state, action []float64
	res0, resPrev float64
}

// Start implements core.Policy: the agent, in the default's state.
func (p *cdbTune) Start(v *core.View) error {
	p.defInternal = v.Iterations[0].Measurement.Internal
	p.agent = rl.New(len(p.defInternal), v.Dim, rl.DefaultConfig(), rng.Derive(v.Seed, "cdbtune"))
	p.state = p.normalize(p.defInternal)
	p.res0 = v.History[0].Res
	p.resPrev = p.res0
	return nil
}

// Update implements core.Policy: learn from the previous iteration's
// transition. Training at the start of the next iteration, not at the end
// of the last, keeps the agent's draws in the order of a loop that trains
// right after each measurement.
func (p *cdbTune) Update(v *core.View) error {
	if v.Iter == 1 {
		return nil
	}
	it := v.Iterations[len(v.Iterations)-1]
	obsRes := it.Observation.Res

	// --- Modified CDBTune reward.
	delta0 := (p.res0 - obsRes) / p.res0
	deltaPrev := (p.resPrev - obsRes) / p.resPrev
	reward := delta0 + deltaPrev
	if reward > 0 && !it.Feasible {
		reward = 0 // saved resources by breaking the SLA: worthless
	}
	if reward < 0 && it.Feasible {
		reward = 0 // spent more resources but kept the SLA: neutral
	}
	p.resPrev = obsRes

	next := p.normalize(it.Measurement.Internal)
	p.agent.Observe(rl.Transition{State: p.state, Action: p.action, Reward: reward, NextState: next})
	p.agent.Train(trainSteps)
	p.state = next
	return nil
}

// Propose implements core.Policy: the agent's action in the current state.
func (p *cdbTune) Propose(*core.View) ([]float64, string) {
	p.action = p.agent.Act(p.state)
	return p.action, "rl"
}

// normalize maps internal metrics to the agent's state: each relative to
// the default's (1.0 == default behaviour), capped at 5, scaled to [0, 1].
func (p *cdbTune) normalize(internal []float64) []float64 {
	state := make([]float64, len(p.defInternal))
	for i := range state {
		d := p.defInternal[i]
		if d == 0 {
			d = 1
		}
		state[i] = min(internal[i]/d, 5) / 5
	}
	return state
}
