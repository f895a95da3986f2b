package experiments

import (
	"errors"

	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/par"
	"repro/internal/workload"
)

// row is one line of the experiment table every figure and table is built
// from: one tuner on one target. It runs runs sessions of iters iterations,
// the run-th on ev(run), one after another on the same tuner — a baseline's
// policy is single-session state — and reports their best-feasible series
// averaged.
type row struct {
	key   string
	tuner core.Tuner
	ev    func(run int) core.Evaluator
	iters int
	runs  int
}

// rowResult is what a row reports: its key, its best-feasible series
// averaged over its runs, and its last run's result.
type rowResult struct {
	key    string
	series []float64
	last   *core.Result
}

// averaged is the row of p.Runs sessions (at least one) of p.Iters
// iterations.
func (p Params) averaged(key string, tuner core.Tuner, ev func(run int) core.Evaluator) row {
	return row{key, tuner, ev, p.Iters, max(p.Runs, 1)}
}

// once is the row of a single p.Iters-iteration session.
func (p Params) once(key string, tuner core.Tuner, ev func(run int) core.Evaluator) row {
	return row{key, tuner, ev, p.Iters, 1}
}

// run runs the row's sessions in order.
func (rw row) run() (rowResult, error) {
	out := rowResult{key: rw.key}
	series := make([][]float64, 0, rw.runs)
	for run := 0; run < rw.runs; run++ {
		res, err := rw.tuner.Run(rw.ev(run), rw.iters)
		if err != nil {
			return rowResult{}, err
		}
		series = append(series, res.BestFeasibleSeries())
		out.last = res
	}
	out.series = averageSeries(series)
	return out, nil
}

// runRows runs the rows concurrently and returns their results in row
// order. Every session is seeded on its own and rows share no mutable state,
// so the results are those of running the rows one by one, at any
// GOMAXPROCS.
func runRows(rows []row) ([]rowResult, error) {
	out := make([]rowResult, len(rows))
	errs := make([]error, len(rows))
	par.ForEach(len(rows), func(i int) { out[i], errs[i] = rows[i].run() })
	return out, errors.Join(errs...)
}

// simRuns is a row's evaluators on the simulator: run r measures
// simEvaluator seeded seed+r.
func simRuns(w workload.Workload, hwName string, space *knobs.Space, resource dbsim.ResourceKind, seed int64, opts ...dbsim.Option) func(run int) core.Evaluator {
	return func(run int) core.Evaluator {
		return simEvaluator(w, hwName, space, resource, seed+int64(run), opts...)
	}
}

// scratchRow is the row of one ResTune-w/o-ML session tuning CPU for w on
// instance hwName.
func scratchRow(p Params, key string, w workload.Workload, hwName string, seed int64) row {
	return p.once(key, core.New(p.config(seed, "ResTune-w/o-ML", nil, nil)),
		simRuns(w, hwName, knobs.CPUSpace(), dbsim.CPUPct, seed, halfRAM))
}

// defaultAndBest returns a session's default resource reading and its best
// feasible one (the default when nothing feasible was found).
func defaultAndBest(res *core.Result) (def, best float64) {
	def = res.Iterations[0].Observation.Res
	if b, ok := res.BestFeasible(); ok {
		return def, b.Res
	}
	return def, def
}

// averageSeries element-wise averages equal-length series (shorter runs are
// padded with their final value, which matches how converged sessions would
// continue).
func averageSeries(series [][]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	out := make([]float64, maxLen)
	for _, s := range series {
		for i := 0; i < maxLen; i++ {
			v := s[len(s)-1]
			if i < len(s) {
				v = s[i]
			}
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(series))
	}
	return out
}
