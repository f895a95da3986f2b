package gp

import (
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/par"
)

// FitConfig controls marginal-likelihood hyperparameter search.
type FitConfig struct {
	// Candidates is the number of random hyperparameter draws evaluated.
	Candidates int
	// Recorder receives a per-search span (nil records nothing). Telemetry
	// only — the search result never depends on it.
	Recorder obs.Recorder
}

// The search bounds, appropriate for normalized inputs (in [0,1]) and
// standardized targets.
const (
	lengthScaleMin, lengthScaleMax = 0.05, 3.0
	varianceMin, varianceMax       = 0.05, 5.0
	noiseMin, noiseMax             = 1e-5, 0.25
)

// DefaultFitConfig returns the full search budget.
func DefaultFitConfig() FitConfig {
	return FitConfig{Candidates: 32}
}

// FitHyperparams maximizes the log marginal likelihood over kernel length
// scale, signal variance and noise variance by seeded random search in log
// space, keeping the incumbent hyperparameters as one of the candidates.
// The GP must already hold data (Fit must have been called). It returns the
// best log marginal likelihood found.
//
// Candidates are pre-drawn from the seeded stream in index order, evaluated
// concurrently on clones sharing the training data, and reduced in index
// order (a later candidate must strictly beat the running best), so the
// result is bit-identical to the sequential search at any GOMAXPROCS.
//
// Only a candidate whose LML beats the incumbent's can be adopted, so each
// clone factors against that bound and is abandoned, unfactored, as soon as
// its first rows prove it cannot (GP.refactor). The bound is the incumbent
// alone, never a running best, so which candidates are abandoned does not
// depend on the order they run in; and an abandoned candidate is one the
// exhaustive search would have passed over, so the result is its bits.
func FitHyperparams(g *GP, cfg FitConfig, rng *rand.Rand) float64 {
	if g.N() == 0 {
		return math.Inf(-1)
	}
	rec := obs.OrNop(cfg.Recorder)
	var sp obs.Span
	if rec.Enabled() {
		sp = rec.Span("gp.fit_hyperparams",
			obs.Int("n", g.N()), obs.Int("candidates", cfg.Candidates))
		defer sp.End()
	}
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	type cand struct {
		params []float64
		noise  float64
		rows   int  // factor rows finished (telemetry)
		pruned bool // abandoned against the incumbent (telemetry)
	}
	nParams := len(g.kernel.Params())
	cands := make([]cand, cfg.Candidates)
	for c := range cands {
		p := make([]float64, nParams)
		p[0] = math.Log(logU(varianceMin, varianceMax))
		for i := 1; i < nParams; i++ {
			p[i] = math.Log(logU(lengthScaleMin, lengthScaleMax))
		}
		cands[c] = cand{params: p, noise: logU(noiseMin, noiseMax)}
	}

	// The incumbent's LML (−Inf if it never factored, which abandons nothing
	// and forces replacement).
	incumbent := g.LogMarginalLikelihood()
	lml := make([]float64, len(cands))
	clones := make([]*GP, len(cands))
	par.ForEach(len(cands), func(i int) {
		cg := g.cloneForSearch()
		clones[i] = cg
		cg.kernel.SetParams(cands[i].params)
		cg.NoiseVariance = cands[i].noise
		err := cg.refactor(incumbent)
		cands[i].rows, cands[i].pruned = cg.bufs.chol.N(), err == errPruned
		if err != nil {
			lml[i] = math.Inf(-1)
			return
		}
		lml[i] = cg.LogMarginalLikelihood()
	})
	if sp != nil {
		pruned, rows := 0, 0
		for _, c := range cands {
			rows += c.rows
			if c.pruned {
				pruned++
			}
		}
		sp.SetAttrs(obs.Int("pruned", pruned), obs.Int("rows_factored", rows))
	}

	// Index-ordered reduction against the incumbent. The winner swaps factor
	// storage with g; then every clone, factored or not, returns what it
	// holds.
	bestLML := incumbent
	bestIdx := -1
	for i, v := range lml {
		if clones[i].chol != nil && v > bestLML {
			bestLML, bestIdx = v, i
		}
	}
	if bestIdx >= 0 {
		g.adopt(clones[bestIdx])
	}
	for _, cg := range clones {
		cg.releaseBufs()
	}
	if g.chol != nil {
		// A candidate won and was adopted, or the incumbent hyperparameters
		// won and the factorization is already theirs.
		return bestLML
	}
	// Neither the incumbent nor any candidate factored: fall back to a safe
	// prior.
	g.kernel.SetParams(defaultParams(nParams))
	g.NoiseVariance = 0.1
	_ = g.refactor(math.Inf(-1))
	return g.LogMarginalLikelihood()
}

func defaultParams(n int) []float64 {
	p := make([]float64, n)
	// variance 1.0 -> log 0; length scales 0.5
	for i := 1; i < n; i++ {
		p[i] = math.Log(0.5)
	}
	return p
}
