package meta

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/bo"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// EpanechnikovBandwidth is the default bandwidth ρ of the static-weight
// kernel (Eq. 8). Meta-features are probability distributions over a small
// number of cost levels, so distances live well inside [0, √2]; the
// bandwidth is set so same-family workload variations (distances ~0.01-0.1)
// differentiate the way paper Table 5 reports while clearly dissimilar
// workloads (distances >= 0.2) receive zero static weight.
const EpanechnikovBandwidth = 0.1

// Epanechnikov is the quadratic kernel γ(t) = 3/4·(1−t²) for t ≤ 1, else 0.
func Epanechnikov(t float64) float64 {
	if t > 1 || t < -1 {
		return 0
	}
	return 0.75 * (1 - t*t)
}

// StaticWeights assigns each historical base-learner a weight from the
// similarity between its workload meta-feature and the target's (Eq. 8):
// g_i = γ(‖m_i − m_{T+1}‖₂ / ρ). The returned slice has len(base)+1
// entries; the last is the target base-learner's weight, which is γ(0)
// (maximal self-similarity) when the target has a fitted model and zero
// before any target observations exist.
func StaticWeights(base []*BaseLearner, targetMeta []float64, targetFitted bool, bandwidth float64) []float64 {
	if bandwidth <= 0 {
		bandwidth = EpanechnikovBandwidth
	}
	w := make([]float64, len(base)+1)
	for i, b := range base {
		w[i] = Epanechnikov(distance(b.MetaFeature, targetMeta) / bandwidth)
	}
	if targetFitted {
		w[len(base)] = Epanechnikov(0)
	}
	return w
}

func distance(a, b []float64) float64 {
	if len(a) != len(b) {
		// Meta-features from different characterizer versions are
		// incomparable; treat as maximally distant.
		return math.Inf(1)
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// DynamicOptions tunes the dynamic weight assignment.
type DynamicOptions struct {
	// Samples is the posterior sample count (100 by default).
	Samples int
	// DilutionGuard, when set, applies the RGPE weight-dilution guard
	// (Feurer et al., the paper's reference [13]): a historical learner
	// whose median sampled loss exceeds the 95th percentile of the target
	// learner's own loss samples is discarded outright, preventing many
	// weakly-wrong learners from collectively diluting the target.
	DilutionGuard bool
	// Recorder receives a per-assignment span (nil records nothing).
	// Telemetry only — the weights never depend on it.
	Recorder obs.Recorder
}

// DynamicWeightsOpts implements the RGPE-style weight assignment of Section
// 6.4.2: each learner's ranking loss against the target observations is a
// random variable (predictions are sampled from the learner's posterior);
// the weight of learner i is the probability that it attains the minimum
// loss. Historical learners are scored on their posterior at the target's
// observed points; the target learner is scored out-of-sample via its
// leave-one-out posterior. The loss sums over all three metrics
// (res, tps, lat), evaluating both the objective and constraint surfaces.
//
// The two hot phases — per-learner posterior computation and per-learner
// loss sampling — fan out across learners. Loss sampling draws from one
// pre-seeded sub-stream per learner (partitioned from r in learner order),
// and the truth-side ranking structure is built once per metric, so each
// sampled loss only ranks the sample (RankEvaluator) and the result is
// bit-identical at any GOMAXPROCS.
//
// The returned slice has len(base)+1 entries, target last, summing to 1.
// A session calling this every iteration should use Corpus.DynamicWeights,
// which computes each base posterior once.
func DynamicWeightsOpts(base []*BaseLearner, target *BaseLearner, opts DynamicOptions, r *rand.Rand) []float64 {
	posts := make([]*basePosterior, len(base))
	for i, b := range base {
		posts[i] = &basePosterior{learner: b}
	}
	return dynamicWeights(posts, target, opts, r)
}

// basePosterior is one learner's posterior mean and standard deviation, per
// metric, at a prefix of the target's observed configurations — the input
// Eq. 9's sampling reads.
type basePosterior struct {
	learner *BaseLearner
	mu, sd  [3][]float64
}

// covered returns how many history points the entry holds.
func (p *basePosterior) covered() int { return len(p.mu[0]) }

// truncate keeps the entry's first n points at most.
func (p *basePosterior) truncate(n int) {
	if n >= p.covered() {
		return
	}
	for m := range p.mu {
		p.mu[m], p.sd[m] = p.mu[m][:n], p.sd[m][:n]
	}
}

// extend computes the learner's posterior at the points of h the entry does
// not hold yet, in one batched call (bit-identical to point-wise Predict).
func (p *basePosterior) extend(h bo.History) {
	from := p.covered()
	if from >= len(h) {
		return
	}
	var post bo.BatchPosterior
	p.learner.PredictBatch(h[from:].Thetas(), &post)
	for m := range p.mu {
		p.mu[m] = append(p.mu[m], post.Mu[m]...)
		for _, v := range post.Var[m] {
			p.sd[m] = append(p.sd[m], math.Sqrt(v))
		}
	}
}

// posteriorMemo keeps the base posteriors of Corpus.DynamicWeights across a
// session's iterations. Base learners never change and the target history
// only grows, so each (learner, point) posterior is computed once. Every use
// re-validates: the entries cover the longest prefix of the history whose θ
// match the memo's own copies bit for bit, and an entry whose learner is not
// the one at its position is recomputed from scratch.
type posteriorMemo struct {
	thetas [][]float64
	posts  []*basePosterior
}

// resolve returns one entry per base learner, each holding a valid prefix of
// h; dynamicWeights' fan-out extends them to all of h. All bookkeeping
// happens here, before the fan-out, so the workers touch only their own
// entry.
func (pm *posteriorMemo) resolve(base []*BaseLearner, h bo.History) []*basePosterior {
	valid := 0
	for valid < len(pm.thetas) && valid < len(h) && sameBits(pm.thetas[valid], h[valid].Theta) {
		valid++
	}
	pm.thetas = pm.thetas[:valid]
	for _, o := range h[valid:] {
		pm.thetas = append(pm.thetas, append([]float64(nil), o.Theta...))
	}
	posts := make([]*basePosterior, len(base))
	for i, b := range base {
		if i < len(pm.posts) && pm.posts[i].learner == b {
			posts[i] = pm.posts[i]
			posts[i].truncate(valid)
		} else {
			posts[i] = &basePosterior{learner: b}
		}
	}
	pm.posts = posts
	return posts
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// dynamicWeights is DynamicWeightsOpts over base posteriors that may already
// cover a prefix of the target history.
func dynamicWeights(posts []*basePosterior, target *BaseLearner, opts DynamicOptions, r *rand.Rand) []float64 {
	nL := len(posts) + 1
	w := make([]float64, nL)
	h := target.History
	nt := len(h)
	if nt < 2 {
		// Not enough target observations to rank pairs; trust the target.
		w[nL-1] = 1
		return w
	}
	samples := opts.Samples
	if samples <= 0 {
		samples = 100
	}
	rec := obs.OrNop(opts.Recorder)
	var sp obs.Span
	if rec.Enabled() {
		sp = rec.Span("meta.dynamic_weights",
			obs.Int("learners", nL), obs.Int("target_obs", nt),
			obs.Int("samples", samples))
	}

	// Ground-truth orderings use the raw target observations (ranking is
	// scale-invariant, the key to hardware transfer). The sort order and
	// tie structure are hoisted out of the sampling loop.
	evals := make([]*RankEvaluator, len(bo.Metrics))
	for mi, m := range bo.Metrics {
		evals[mi] = NewRankEvaluator(h.Values(m))
	}

	// Posterior means/stds of every learner at the target's observed points,
	// per metric, concurrently: each base entry computes the points it does
	// not hold yet (pure reads of read-only surrogates), the target takes its
	// leave-one-out posterior, all three metrics in one item: giving each its
	// own item measured no faster.
	learners := make([]*basePosterior, nL)
	copy(learners, posts)
	learners[nL-1] = &basePosterior{learner: target}
	par.ForEach(nL, func(i int) {
		p := learners[i]
		if i < nL-1 {
			p.extend(h)
			return
		}
		for mi, m := range bo.Metrics {
			looMu, looVar := target.Surrogate.GP(m).LOO()
			sd := make([]float64, nt)
			for j := range sd {
				sd[j] = math.Sqrt(looVar[j])
			}
			p.mu[mi], p.sd[mi] = looMu, sd
		}
	})

	// Sample every learner's loss distribution on its own stream.
	streams := rng.Partition(r, nL)
	lossMatrix := make([][]int, nL)
	par.ForEach(nL, func(i int) {
		lr := streams[i]
		ev := make([]*RankEvaluator, len(evals))
		for mi := range evals {
			ev[mi] = evals[mi].Clone()
		}
		pred := make([]float64, nt)
		losses := make([]int, samples)
		p := learners[i]
		for s := 0; s < samples; s++ {
			loss := 0
			for mi := range bo.Metrics {
				mu, sd := p.mu[mi], p.sd[mi]
				for j := 0; j < nt; j++ {
					pred[j] = mu[j] + sd[j]*lr.NormFloat64()
				}
				loss += ev[mi].Loss(pred)
			}
			losses[s] = loss
		}
		lossMatrix[i] = losses
	})

	// Weight-dilution guard: drop historical learners whose median loss is
	// worse than the target's 95th percentile loss. The target's p95 is
	// computed once, and one scratch buffer serves every percentile call.
	excluded := make([]bool, nL)
	if opts.DilutionGuard {
		scratch := make([]int, samples)
		targetP95 := percentileInt(scratch, lossMatrix[nL-1], 0.95)
		for i := 0; i < nL-1; i++ {
			if percentileInt(scratch, lossMatrix[i], 0.5) > targetP95 {
				excluded[i] = true
			}
		}
	}

	// Weight each learner by the probability it attains the minimum loss,
	// splitting ties uniformly.
	wins := make([]float64, nL)
	ties := make([]int, 0, nL)
	for s := 0; s < samples; s++ {
		minLoss := -1
		for i := 0; i < nL; i++ {
			if excluded[i] {
				continue
			}
			if minLoss < 0 || lossMatrix[i][s] < minLoss {
				minLoss = lossMatrix[i][s]
			}
		}
		ties = ties[:0]
		for i := 0; i < nL; i++ {
			if !excluded[i] && lossMatrix[i][s] == minLoss {
				ties = append(ties, i)
			}
		}
		wins[ties[r.Intn(len(ties))]]++
	}
	for i := range w {
		w[i] = wins[i] / float64(samples)
	}
	if sp != nil {
		nExcluded := 0
		for _, x := range excluded {
			if x {
				nExcluded++
			}
		}
		sp.SetAttrs(obs.Int("excluded", nExcluded), obs.Floats("weights", w))
		sp.End()
	}
	return w
}

// percentileInt returns the q-quantile of values, sorting a copy in scratch
// (len(scratch) >= len(values)); values is not mutated.
func percentileInt(scratch, values []int, q float64) int {
	s := scratch[:len(values)]
	copy(s, values)
	sort.Ints(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

// MeanRankingLossPct returns each base-learner's posterior-mean ranking
// loss against the target history as a percentage of total ordered pairs —
// the quantity Table 5 reports per variant.
func MeanRankingLossPct(base []*BaseLearner, h bo.History) []float64 {
	nt := len(h)
	out := make([]float64, len(base))
	if nt < 2 {
		return out
	}
	evals := make([]*RankEvaluator, len(bo.Metrics))
	for mi, m := range bo.Metrics {
		evals[mi] = NewRankEvaluator(h.Values(m))
	}
	totalPairs := float64(3 * nt * nt) // three metrics, n² ordered pairs each
	pred := make([]float64, nt)
	for i, b := range base {
		loss := 0
		for mi, m := range bo.Metrics {
			for j, o := range h {
				pred[j] = b.Surrogate.PredictMean(m, o.Theta)
			}
			loss += evals[mi].Loss(pred)
		}
		out[i] = float64(loss) / totalPairs * 100
	}
	return out
}
