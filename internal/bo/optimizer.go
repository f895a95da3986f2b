package bo

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
)

// AcqFunc is an acquisition function over the normalized space [0,1]^m,
// to be maximized. OptimizeAcqBatch scores candidates concurrently, so an
// AcqFunc must be safe for concurrent calls (every surrogate in this
// repository is: prediction paths are read-only with pooled scratch).
type AcqFunc func(x []float64) float64

// BatchAcqFunc scores a block of candidates at once, writing out[j] = f(X[j])
// for the point-wise function it batches. It must be bit-identical to the
// point-wise AcqFunc and safe for concurrent calls on disjoint blocks —
// CEIBatch over any BatchSurrogate satisfies both.
type BatchAcqFunc func(X [][]float64, out []float64)

// batchBlock is the candidate-block width of the batched probe phase: large
// enough to amortize cross-covariance and solve setup per block, small
// enough that per-block workspaces (a few n x block matrices) stay
// cache-resident at mid-session history sizes. Block partitioning is purely
// mechanical — candidates never interact — so the width never shows in the
// recommendation.
const batchBlock = 64

// Box is an axis-aligned search region inside the normalized [0,1]^m space —
// the trust region a drift-aware session clamps exploration to. Lo and Hi
// are per-dimension bounds with Lo[d] <= Hi[d].
type Box struct {
	Lo, Hi []float64
}

// Clamp projects x into the box in place and returns it.
func (b *Box) Clamp(x []float64) []float64 {
	for d := range x {
		if x[d] < b.Lo[d] {
			x[d] = b.Lo[d]
		} else if x[d] > b.Hi[d] {
			x[d] = b.Hi[d]
		}
	}
	return x
}

// Contains reports whether x lies inside the box within tolerance eps.
func (b *Box) Contains(x []float64, eps float64) bool {
	for d := range x {
		if x[d] < b.Lo[d]-eps || x[d] > b.Hi[d]+eps {
			return false
		}
	}
	return true
}

// OptimizerConfig controls acquisition maximization.
type OptimizerConfig struct {
	// RandomCandidates is the number of uniform random probes.
	RandomCandidates int
	// LocalStarts is the number of best probes refined by local search.
	LocalStarts int
	// LocalSteps is the number of coordinate-perturbation rounds per start.
	LocalSteps int
	// StepScale is the initial perturbation magnitude (fraction of range).
	StepScale float64
	// Bounds restricts the whole search — random probes, incumbent start
	// points and local refinement — to an axis-aligned box within [0,1]^m
	// (the trust region of a drift-aware session). Nil searches the full
	// cube. The seeded stream is consumed identically either way: probes
	// are drawn uniformly and affinely mapped into the box, so a full-cube
	// box is bit-identical to no box at all.
	Bounds *Box
	// Recorder receives a per-optimization span (nil records nothing).
	// Telemetry only — the recommendation never depends on it.
	Recorder obs.Recorder
}

// DefaultOptimizerConfig returns settings balancing quality and cost for the
// dimensionalities in this repository (2-20 knobs).
func DefaultOptimizerConfig() OptimizerConfig {
	return OptimizerConfig{RandomCandidates: 512, LocalStarts: 5, LocalSteps: 40, StepScale: 0.1}
}

// OptimizeAcqBatch maximizes f over [0,1]^dim with random sampling followed
// by a shrinking random local search from the best candidates. incumbents,
// if non-nil, are extra start points (e.g. previously evaluated
// configurations) included among the probes, which helps exploitation near
// known-good regions.
//
// Both hot phases fan out deterministically: all probe coordinates are
// pre-drawn from the seeded stream in index order before concurrent scoring,
// and each local-search start runs on its own sub-stream (partitioned from
// the seeded stream in start order), with index-ordered reductions and
// first-index tie-breaks. The recommendation is therefore bit-identical at
// any GOMAXPROCS.
//
// batch is an optional batch-scoring hook: when non-nil, the random-probe
// phase block-partitions the candidates (batchBlock per block) and
// scores each block with one batch call, fanning blocks across par workers
// instead of single points; nil scores every probe through f. Because a
// conforming BatchAcqFunc is bit-identical to f and blocks write disjoint
// result ranges, the probe scores — and therefore the recommendation — match
// the point-wise path bit for bit at any GOMAXPROCS.
// Local search stays point-wise: each step depends on the previous accept.
func OptimizeAcqBatch(f AcqFunc, batch BatchAcqFunc, dim int, cfg OptimizerConfig, incumbents [][]float64, r *rand.Rand) []float64 {
	rec := obs.OrNop(cfg.Recorder)
	var sp obs.Span
	if rec.Enabled() {
		sp = rec.Span("bo.optimize_acq",
			obs.Int("dim", dim),
			obs.Int("candidates", cfg.RandomCandidates),
			obs.Int("incumbents", len(incumbents)),
			obs.Int("starts", cfg.LocalStarts),
			obs.Bool("batched", batch != nil))
		defer sp.End()
	}
	// All probe (and incumbent) coordinates live in one contiguous backing
	// array — one allocation instead of one per candidate, and cache-dense
	// input for the batched cross-covariance pass. Draw order (candidate
	// major, dimension minor) matches the per-candidate loop it replaces, so
	// the seeded stream is consumed identically.
	box := cfg.Bounds
	if box != nil && (len(box.Lo) != dim || len(box.Hi) != dim) {
		panic("bo: OptimizerConfig.Bounds dimension mismatch")
	}
	total := cfg.RandomCandidates + len(incumbents)
	coords := make([]float64, total*dim)
	for i := 0; i < cfg.RandomCandidates*dim; i++ {
		coords[i] = r.Float64()
	}
	if box != nil {
		// Affine map of the uniform draws into the box. With the full cube
		// this is u*1.0 + 0 = u, so Bounds == [0,1]^m is bit-identical to
		// Bounds == nil.
		for i := 0; i < cfg.RandomCandidates; i++ {
			row := coords[i*dim : (i+1)*dim]
			for d := 0; d < dim; d++ {
				row[d] = box.Lo[d] + row[d]*(box.Hi[d]-box.Lo[d])
			}
		}
	}
	xs := make([][]float64, 0, total)
	for i := 0; i < cfg.RandomCandidates; i++ {
		xs = append(xs, coords[i*dim:(i+1)*dim:(i+1)*dim])
	}
	for k, inc := range incumbents {
		row := coords[(cfg.RandomCandidates+k)*dim : (cfg.RandomCandidates+k+1)*dim : (cfg.RandomCandidates+k+1)*dim]
		copy(row, inc)
		if box != nil {
			box.Clamp(row)
		}
		xs = append(xs, row)
	}
	if len(xs) == 0 {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		if box != nil {
			for d := range x {
				x[d] = box.Lo[d] + x[d]*(box.Hi[d]-box.Lo[d])
			}
		}
		return x
	}
	vals := make([]float64, len(xs))
	tScore := time.Now()
	if batch != nil {
		nb := (len(xs) + batchBlock - 1) / batchBlock
		par.ForEach(nb, func(b int) {
			lo := b * batchBlock
			hi := lo + batchBlock
			if hi > len(xs) {
				hi = len(xs)
			}
			batch(xs[lo:hi], vals[lo:hi])
		})
		if sp != nil {
			sp.SetAttrs(obs.Int("batch_block", batchBlock), obs.Int("batch_blocks", nb))
		}
	} else {
		par.ForEach(len(xs), func(i int) { vals[i] = f(xs[i]) })
	}
	if sp != nil {
		if el := time.Since(tScore).Seconds(); el > 0 {
			sp.SetAttrs(obs.Float("probe_score_ms", el*1e3),
				obs.Float("probes_per_sec", float64(len(xs))/el))
		}
	}

	// Partial selection of the top LocalStarts probes (first index wins
	// ties, matching a sequential scan).
	starts := cfg.LocalStarts
	if starts < 1 {
		starts = 1
	}
	if starts > len(xs) {
		starts = len(xs)
	}
	for s := 0; s < starts; s++ {
		bi := s
		for j := s + 1; j < len(xs); j++ {
			if vals[j] > vals[bi] {
				bi = j
			}
		}
		xs[s], xs[bi] = xs[bi], xs[s]
		vals[s], vals[bi] = vals[bi], vals[s]
	}

	// Refine the selected starts concurrently, one pre-seeded stream each.
	type scored struct {
		x []float64
		v float64
	}
	streams := rng.Partition(r, starts)
	refined := make([]scored, starts)
	par.ForEach(starts, func(s int) {
		sr := streams[s]
		cur := scored{append([]float64(nil), xs[s]...), vals[s]}
		cand := make([]float64, dim)
		step := cfg.StepScale
		for it := 0; it < cfg.LocalSteps; it++ {
			for d := range cand {
				cand[d] = clamp01(cur.x[d] + step*sr.NormFloat64())
			}
			if box != nil {
				box.Clamp(cand)
			}
			if v := f(cand); v > cur.v {
				cur.x, cand = cand, cur.x // swap buffers; old cur.x is scratch now
				cur.v = v
			} else {
				step *= 0.9 // shrink on failure
			}
		}
		refined[s] = cur
	})

	best := scored{xs[0], vals[0]}
	for s := 0; s < starts; s++ {
		if refined[s].v > best.v {
			best = refined[s]
		}
	}
	return best.x
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
