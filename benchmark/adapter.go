package main

// adapter.go is the one place where the six workloads touch the program.
// Everything they pin is named here, on the side of each fork that ROADMAP
// item 2 keeps: base tasks reach a session through Config.Corpus (never
// Config.Base), repositories through Repository.Corpus, sparse base-learners
// through NewBaseLearnerSparse. A refactor that renames or removes one of
// these breaks this file; the layer probes (probes.go) are the only other
// code that calls into the program, one public function each, and use
// OptimizeAcqBatch and FitWithBudget from the same side of those forks.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/minidb"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rng"
	"repro/internal/workload"
)

// scale holds every size a workload or probe uses. canonical() is the
// benchmark; tiny() is the same code at smoke-test sizes.
type scale struct {
	// WarmIters is the length of the miniature unit that ends every set-up.
	WarmIters int
	// SetupBudget is how long set-up keeps repeating (at least three times)
	// before the median is taken.
	SetupBudget time.Duration

	CBOIters int

	MetaIters     int
	MetaRepoIters int
	MetaRepoLimit int // distinct repository workloads, 0 = all 17

	FleetSessions int
	FleetIters    int
	FleetCorpus   int
	FleetHistLen  int

	AlwaysOnIters       int
	AlwaysOnStepsPerDay int
	AlwaysOnCorpusObs   int
	AlwaysOnSparse      gp.SparseConfig

	SweepPoints int
	EngineRows  int64

	ProbeHistory   int   // gp/bo probe history length (the .n200 in the names)
	ProbeSparseN   int   // gp.sparse_fit history length (.n320)
	ProbeCorpusN   int   // meta corpus probes (.n1000)
	ProbeCholN     int   // mat probes (.n256)
	ProbeRows      int64 // minidb direct drive table size
	ProbeStmts     int   // minidb direct drive statements per drive
	ProbeQueries   int   // workload/replay probes
	ProbeJSONLIter int   // obs.jsonl_overhead_pct session length
}

// canonical is the benchmark's scale. ISSUE 11 drafted the workloads at
// 120/16x60/320/120-point sizes, where one unit took 7 to 29 s on two cores;
// they are scaled together here so that a unit takes 1.5 to 6 s and a 12 s
// run holds two or more: the always-on session keeps a third of its history
// past the sparse threshold, as the draft's 320 iterations over 256 did.
func canonical() scale {
	return scale{
		WarmIters: 16, SetupBudget: time.Second,
		CBOIters:  200,
		MetaIters: 80, MetaRepoIters: 30, MetaRepoLimit: 0,
		FleetSessions: 16, FleetIters: 30, FleetCorpus: 1000, FleetHistLen: 20,
		AlwaysOnIters: 192, AlwaysOnStepsPerDay: 64, AlwaysOnCorpusObs: 30,
		AlwaysOnSparse: gp.SparseConfig{Threshold: 128, MaxAnchors: 128, ReselectEvery: 32},
		SweepPoints:    24, EngineRows: 2000,
		ProbeHistory: 200, ProbeSparseN: 320, ProbeCorpusN: 1000, ProbeCholN: 256,
		ProbeRows: 8000, ProbeStmts: 4000, ProbeQueries: 10000, ProbeJSONLIter: 40,
	}
}

// tiny runs every code path of the benchmark in a few seconds in total.
func tiny() scale {
	return scale{
		WarmIters: 2, SetupBudget: 0,
		CBOIters:  12,
		MetaIters: 12, MetaRepoIters: 8, MetaRepoLimit: 2,
		FleetSessions: 4, FleetIters: 12, FleetCorpus: 80, FleetHistLen: 8,
		AlwaysOnIters: 24, AlwaysOnStepsPerDay: 8, AlwaysOnCorpusObs: 10,
		AlwaysOnSparse: gp.SparseConfig{Threshold: 12, MaxAnchors: 12, ReselectEvery: 4},
		SweepPoints:    5, EngineRows: 100,
		ProbeHistory: 40, ProbeSparseN: 60, ProbeCorpusN: 80, ProbeCholN: 32,
		ProbeRows: 500, ProbeStmts: 200, ProbeQueries: 200, ProbeJSONLIter: 6,
	}
}

// sessionSummary is what the benchmark keeps of one finished session (or
// one sweep pass, which it scores the same way).
type sessionSummary struct {
	attempted, failed        int
	improvementPct           float64
	postInit, violations     int
	hash                     uint64
	modelUpdate, recommend   time.Duration
	replay, step             time.Duration
	driftEvents, driftResets int
	itersToBest              int
}

// unitResult is one unit of a workload's timed region: a session, a fleet
// run or a sweep pass.
type unitResult struct {
	iterMs   []float64 // one latency sample per iteration
	waitMs   []float64 // fleet only: turnaround minus the step's own stages
	sessions []sessionSummary
}

// runner is a workload after set-up. unit runs the k-th unit of the timed
// region; tr is nil in an untraced run.
type runner struct {
	unit func(k int, tr *tracer) (unitResult, error)
	// warm runs a miniature unit. Set-up ends with it, so that the timed
	// region starts on a program whose pools, caches and code are warm, and
	// so that setup_s is never a few microseconds of constructor calls.
	warm func() error
	// layer adds the counts only the workload's own objects hold (shared-fit
	// statistics, resident learners) to a traced run's layer metrics.
	layer func(m map[string]float64)
	close func()
	// workers is the number of sessions the workload steps at once.
	workers int
	sizes   map[string]int
}

// workloadDef names a workload and builds its runner. Everything set-up
// does is charged to setup_s, nothing to the timed region.
type workloadDef struct {
	Name  string
	Why   string
	setup func(seed int64, opt runOptions, dir string) (*runner, error)
}

var workloads = []workloadDef{
	{"cbo-200", "ResTune without meta-learning: gp hyper-parameter search and bo acquisition do all the work, the control for meta and engine changes", setupCBO},
	{"meta-34", "34-task repository on the exact all-learners path: dynamic weights and ensemble prediction inside acquisition dominate", setupMeta34},
	{"fleet-1k", "core.Fleet over one shared 1000-task corpus: VP-tree shortlist, single-flight lazy fits and scheduling compete for the cores", setupFleet},
	{"always-on", "one long drift-aware session on a diurnal timeline: weighted and sparse gp modes, drift detector, trust region, long-history rescans", setupAlwaysOn},
	{"engine-read", "minidb replay alone, read-mostly Sysbench over a fixed knob design: open, load, plan cache, B+tree, buffer pool; tuner idle", setupEngineRead},
	{"engine-write", "the same minidb sweep, transactional TPC-C: WAL append and sync policy, row locks, page splits, page cleaner", setupEngineWrite},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// baseConfig is core.DefaultConfig with early stopping off, so that a
// session always runs its whole budget and work per unit is fixed.
func baseConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.ConvergenceWindow = 0
	cfg.TargetImprovementPct = 0
	return cfg
}

// timedEvaluator is the benchmark's decorator on core.Evaluator. It stamps
// the return of every Measure (the fleet's turnaround samples are the gaps
// between consecutive stamps of one session) and, in a traced run, wraps
// the call in a span.
type timedEvaluator struct {
	core.Evaluator
	st      *sessionTrace
	returns []time.Time
}

func (e *timedEvaluator) Measure(native []float64) dbsim.Measurement {
	sp := e.st.begin("measure")
	m := e.Evaluator.Measure(native)
	sp.End()
	e.returns = append(e.returns, time.Now())
	return m
}

// driftingTimedEvaluator keeps the DriftingEvaluator methods visible to the
// session when the decorated evaluator has them.
type driftingTimedEvaluator struct {
	*timedEvaluator
	core.DriftingEvaluator
}

func (e driftingTimedEvaluator) Measure(native []float64) dbsim.Measurement {
	return e.timedEvaluator.Measure(native)
}

func traced(ev core.Evaluator, st *sessionTrace) core.Evaluator {
	if st == nil {
		return ev
	}
	te := &timedEvaluator{Evaluator: ev, st: st}
	if d, ok := ev.(core.DriftingEvaluator); ok {
		return driftingTimedEvaluator{te, d}
	}
	return te
}

// runSession steps one session to the end of its budget, timing every Step
// after the default probe, and summarizes the result.
func runSession(cfg core.Config, ev core.Evaluator, iters int, tr *tracer) (unitResult, error) {
	st := tr.session()
	cfg.Recorder = st.recorder()
	sessSpan := st.begin("session", obs.Int("budget", iters))
	defer sessSpan.End()

	s, err := core.NewSession(cfg, traced(ev, st), iters)
	if err != nil {
		return unitResult{}, fmt.Errorf("new session: %w", err)
	}
	var out unitResult
	out.iterMs = make([]float64, 0, iters)
	var stepTotal time.Duration
	for first := true; ; first = false {
		sp := st.begin("step")
		t0 := time.Now()
		done, err := s.Step()
		d := time.Since(t0)
		sp.End()
		if !first {
			out.iterMs = append(out.iterMs, ms(d))
			stepTotal += d
		}
		// A Step error ends the session; summarize counts the iterations
		// it never reached as failed.
		if err != nil || done {
			break
		}
	}
	sum, err := summarize(s.Result(), cfg.InitIters, iters)
	if err != nil {
		return out, err
	}
	sum.step = stepTotal
	out.sessions = []sessionSummary{sum}
	return out, nil
}

// summarize scores a session result and applies the output checks every run
// makes: each measurement finite, each θ inside [0,1]^d and inside the trust
// region when one is active. A failed check is an error, not a metric.
func summarize(res *core.Result, initIters, budget int) (sessionSummary, error) {
	var sum sessionSummary
	if res == nil || len(res.Iterations) == 0 {
		sum.attempted, sum.failed = budget, budget
		return sum, nil
	}
	h := newTraceHash()
	for _, it := range res.Iterations {
		o := it.Observation
		h.add(o.Theta...)
		h.add(o.Res, o.Tps, o.Lat)
		if it.Index == 0 {
			continue
		}
		sum.attempted++
		if !finite(o.Res, o.Tps, o.Lat) {
			sum.failed++
		}
		for d, v := range o.Theta {
			if !(v >= 0 && v <= 1) {
				return sum, fmt.Errorf("check: iteration %d: theta[%d]=%v outside [0,1]", it.Index, d, v)
			}
			if it.TrustRadius > 0 && it.TrustCenter != nil {
				lo := math.Max(0, it.TrustCenter[d]-it.TrustRadius)
				hi := math.Min(1, it.TrustCenter[d]+it.TrustRadius)
				if v < lo-1e-12 || v > hi+1e-12 {
					return sum, fmt.Errorf("check: iteration %d: theta[%d]=%v outside trust region [%v,%v]", it.Index, d, v, lo, hi)
				}
			}
		}
		if it.Index > initIters {
			sum.postInit++
			if !it.Feasible {
				sum.violations++
			}
		}
		sum.modelUpdate += it.ModelUpdate
		sum.recommend += it.Recommend
		sum.replay += it.Replay
		if it.DriftEvent {
			sum.driftEvents++
			if it.DriftTier == core.DriftReset {
				sum.driftResets++
			}
		}
	}
	// A session that stopped early leaves the rest of its budget unattempted;
	// those iterations count as failed so the share cannot hide them.
	if missing := budget - sum.attempted; missing > 0 {
		sum.attempted += missing
		sum.failed += missing
	}
	sum.improvementPct = res.ImprovementPct()
	sum.itersToBest = res.IterationsToBest()
	sum.hash = h.sum()
	return sum, nil
}

func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// --- cbo-200 ---------------------------------------------------------------

func setupCBO(seed int64, opt runOptions, _ string) (*runner, error) {
	sc := opt.sc
	space := knobs.CPUSpace()
	w := workload.Twitter()
	hw := dbsim.Instance("A")
	session := func(s int64, iters int, tr *tracer) (unitResult, error) {
		sim := dbsim.New(hw, w.Profile, s, dbsim.WithHalfRAMBufferPool())
		cfg := baseConfig(s)
		cfg.Name = "ResTune-w/o-ML"
		return runSession(cfg, core.NewSimEvaluator(sim, space, dbsim.CPUPct), iters, tr)
	}
	return &runner{
		workers: 1,
		sizes:   map[string]int{"iters": sc.CBOIters, "dim": space.Dim()},
		unit:    func(k int, tr *tracer) (unitResult, error) { return session(seed+int64(k), sc.CBOIters, tr) },
		warm:    func() error { _, err := session(seed, sc.WarmIters, nil); return err },
	}, nil
}

// --- meta-34 ---------------------------------------------------------------

// characterizerCorpus is the workload set experiments.BuildRepository trains
// its characterizer on; the target must be embedded by the same pipeline for
// its meta-feature to be comparable with the repository's.
func characterizerCorpus() []workload.Workload {
	return append(workload.Five(),
		workload.TwitterVariant(1), workload.TwitterVariant(2), workload.TwitterVariant(3),
		workload.TwitterVariant(4), workload.TwitterVariant(5))
}

func buildRepository(seed int64, sc scale, space *knobs.Space) (*repo.Repository, error) {
	p := experiments.Params{
		Seed: seed, RepoIters: sc.MetaRepoIters, RepoWorkloadLimit: sc.MetaRepoLimit,
		// The small acquisition is for building the repository only.
		Acq: experiments.Quick().Acq,
	}
	return experiments.BuildRepository(space, dbsim.CPUPct, p, true)
}

func embed(target workload.Workload, seed int64, queries int) ([]float64, error) {
	ch, err := workload.NewCharacterizer(characterizerCorpus(), seed)
	if err != nil {
		return nil, fmt.Errorf("training characterizer: %w", err)
	}
	return ch.MetaFeature(target, queries, rng.Derive(seed, "mf:"+target.Name)), nil
}

func setupMeta34(seed int64, opt runOptions, _ string) (*runner, error) {
	sc := opt.sc
	space := knobs.CPUSpace()
	target := workload.Hotel()
	hw := dbsim.Instance("A")
	r, err := buildRepository(seed, sc, space)
	if err != nil {
		return nil, fmt.Errorf("building repository: %w", err)
	}
	mf, err := embed(target, seed, 10000)
	if err != nil {
		return nil, err
	}
	session := func(s int64, iters int, tr *tracer) (unitResult, error) {
		// A fresh corpus per session: the lazy base-learner fits of the
		// first iteration are inside the timed region, as they are for
		// every session a user starts.
		corpus, err := r.Corpus(space, s, nil, meta.CorpusOptions{Recorder: tr.workload().recorder()})
		if err != nil {
			return unitResult{}, fmt.Errorf("corpus: %w", err)
		}
		sim := dbsim.New(hw, target.Profile, s, dbsim.WithHalfRAMBufferPool())
		cfg := baseConfig(s)
		cfg.Corpus = corpus
		cfg.TargetMetaFeature = mf
		return runSession(cfg, core.NewSimEvaluator(sim, space, dbsim.CPUPct), iters, tr)
	}
	return &runner{
		workers: 1,
		sizes:   map[string]int{"iters": sc.MetaIters, "tasks": len(r.Tasks), "repo_iters": sc.MetaRepoIters, "dim": space.Dim()},
		unit:    func(k int, tr *tracer) (unitResult, error) { return session(seed+int64(k), sc.MetaIters, tr) },
		warm:    func() error { _, err := session(seed, sc.WarmIters, nil); return err },
	}, nil
}

// --- fleet-1k --------------------------------------------------------------

func setupFleet(seed int64, opt runOptions, _ string) (*runner, error) {
	sc := opt.sc
	space := knobs.CPUSpace()
	five := workload.Five()
	hw := dbsim.Instance("A")
	const metaDim = 16
	tasks := meta.SyntheticCorpus(sc.FleetCorpus, metaDim, space.Dim(), sc.FleetHistLen, seed)
	workers := opt.workers
	if workers > sc.FleetSessions {
		workers = sc.FleetSessions
	}
	// One target meta-feature per workload: sessions tuning the same workload
	// shortlist the same neighbours, which is what the shared fit cache is for.
	targets := make(map[string][]float64, len(five))
	for _, w := range five {
		r := rng.Derive(seed, "fleet-target:"+w.Name)
		mf := make([]float64, metaDim)
		norm := 0.0
		for d := range mf {
			mf[d] = r.Float64()
			norm += mf[d] * mf[d]
		}
		for d := range mf {
			mf[d] /= math.Sqrt(norm)
		}
		targets[w.Name] = mf
	}
	var hits, misses uint64
	var resident int

	fleet := func(k, sessions, iters int, tr *tracer) (unitResult, error) {
		// A fresh shared corpus per fleet run, so every run pays the same
		// single-flight fits.
		shared := meta.NewSharedCorpus(tasks, tr.workload().recorder())
		specs := make([]core.SessionSpec, sessions)
		evs := make([]*timedEvaluator, sessions)
		corpora := make([]*meta.Corpus, sessions)
		for i := range specs {
			s := seed + int64(1000*k+i)
			st := tr.session()
			w := five[i%len(five)]
			cfg := baseConfig(s)
			corpora[i] = shared.NewSession(meta.CorpusOptions{Recorder: st.recorder()})
			cfg.Corpus = corpora[i]
			cfg.TargetMetaFeature = targets[w.Name]
			cfg.Recorder = st.recorder()
			sim := dbsim.New(hw, w.Profile, s, dbsim.WithHalfRAMBufferPool())
			evs[i] = &timedEvaluator{
				Evaluator: core.NewSimEvaluator(sim, space, dbsim.CPUPct), st: st,
				returns: make([]time.Time, 0, iters+1),
			}
			specs[i] = core.SessionSpec{Name: fmt.Sprintf("s%d", i), Config: cfg, Evaluator: evs[i], Iters: iters}
		}
		results := core.NewFleet(core.FleetConfig{Workers: workers, Recorder: tr.workload().recorder()}).Run(specs)

		var out unitResult
		for i, res := range results {
			if res.Name != specs[i].Name {
				return out, fmt.Errorf("check: fleet result %d is %q, want %q (spec order)", i, res.Name, specs[i].Name)
			}
			if res.Err != nil {
				return out, fmt.Errorf("check: fleet session %s: %w", res.Name, res.Err)
			}
			sum, err := summarize(res.Result, specs[i].Config.InitIters, iters)
			if err != nil {
				return out, fmt.Errorf("session %s: %w", res.Name, err)
			}
			// An iteration's latency in a fleet is its turnaround: the gap
			// between two Measure returns of one session, run-queue wait
			// included. What is left after the step's own stages is the wait.
			ret := evs[i].returns
			for j := 1; j < len(ret); j++ {
				turn := ret[j].Sub(ret[j-1])
				out.iterMs = append(out.iterMs, ms(turn))
				if j < len(res.Result.Iterations) {
					it := res.Result.Iterations[j]
					out.waitMs = append(out.waitMs, ms(turn-it.ModelUpdate-it.Recommend-it.Replay))
				}
			}
			out.sessions = append(out.sessions, sum)
			resident += corpora[i].Resident()
		}
		h, m := shared.Stats()
		hits += h
		misses += m
		return out, nil
	}
	return &runner{
		workers: workers,
		sizes: map[string]int{"sessions": sc.FleetSessions, "iters": sc.FleetIters, "corpus": sc.FleetCorpus,
			"hist_len": sc.FleetHistLen, "workers": workers, "dim": space.Dim()},
		unit: func(k int, tr *tracer) (unitResult, error) { return fleet(k, sc.FleetSessions, sc.FleetIters, tr) },
		warm: func() error {
			_, err := fleet(0, workers, sc.WarmIters, nil)
			hits, misses, resident = 0, 0, 0
			return err
		},
		layer: func(m map[string]float64) {
			m["meta.shared_fit_misses"] = float64(misses)
			if hits+misses > 0 {
				m["meta.shared_fit_hit_rate"] = float64(hits) / float64(hits+misses)
			}
			m["meta.corpus_resident"] = float64(resident)
		},
	}, nil
}

// --- always-on -------------------------------------------------------------

// signatureCorpusTasks builds the signature-space corpus of drift runs the
// way experiments.driftTimelineCorpus does: one LHS-sampled base task per
// Twitter variant, with the variant's runtime signature as its meta-feature,
// so that a drift reset can re-query the corpus with the streamed signature.
func signatureCorpusTasks(seed int64, obsPerTask int, space *knobs.Space) []meta.CorpusTask {
	tasks := make([]meta.CorpusTask, 0, 5)
	for i := 1; i <= 5; i++ {
		w := workload.TwitterVariant(i)
		taskSeed := seed + int64(77*i)
		sig := w.Signature()
		tasks = append(tasks, meta.CorpusTask{
			ID:          w.Name,
			MetaFeature: sig,
			Fit: func() (*meta.BaseLearner, error) {
				sim := dbsim.New(dbsim.Instance("A"), w.Profile, taskSeed, dbsim.WithHalfRAMBufferPool())
				var h bo.History
				for _, u := range core.LHSInit(obsPerTask, space.Dim(), taskSeed) {
					theta := space.Quantize(u)
					m := sim.Eval(space, space.Denormalize(theta))
					h = append(h, bo.Observation{Theta: theta, Res: m.CPUUtilPct, Tps: m.TPS, Lat: m.LatencyP99Ms})
				}
				return meta.NewBaseLearnerSparse(w.Name, w.Name, "A", sig, h, space.Dim(), taskSeed, gp.SparseConfig{})
			},
		})
	}
	return tasks
}

func setupAlwaysOn(seed int64, opt runOptions, _ string) (*runner, error) {
	sc := opt.sc
	space := knobs.CaseStudySpace()
	w := workload.Twitter()
	tl := workload.DiurnalTimeline()
	session := func(s int64, iters int, tr *tracer) (unitResult, error) {
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, s, dbsim.WithHalfRAMBufferPool())
		ev := core.NewTimelineEvaluator(sim, space, dbsim.CPUPct, w, tl, sc.AlwaysOnStepsPerDay)
		cfg := baseConfig(s)
		cfg.Corpus = meta.NewCorpus(signatureCorpusTasks(s, sc.AlwaysOnCorpusObs, space),
			meta.CorpusOptions{Recorder: tr.workload().recorder()})
		cfg.TargetMetaFeature = w.Signature()
		cfg.Drift = &core.DriftConfig{}
		cfg.Sparse = sc.AlwaysOnSparse
		return runSession(cfg, ev, iters, tr)
	}
	return &runner{
		workers: 1,
		sizes: map[string]int{"iters": sc.AlwaysOnIters, "steps_per_day": sc.AlwaysOnStepsPerDay,
			"sparse_threshold": sc.AlwaysOnSparse.Threshold, "corpus_tasks": 5, "dim": space.Dim()},
		unit: func(k int, tr *tracer) (unitResult, error) { return session(seed+int64(k), sc.AlwaysOnIters, tr) },
		warm: func() error { _, err := session(seed, sc.WarmIters, nil); return err },
	}, nil
}

// --- engine-read / engine-write ---------------------------------------------

// designSeed fixes the sweeps' knob design. It does not follow the run's
// seed: the sweeps exist to replay the same configurations on every run, and
// a design drawn per seed would make two seeds two different amounts of
// work. The seed drives the statements each configuration replays.
const designSeed = 1

// minidbFailure is the measurement minidb.Evaluator returns when a replay
// could not run at all.
func minidbFailure(m dbsim.Measurement) bool {
	return m.TPS == 1 && m.LatencyP99Ms == 1e6 && m.CPUUtilPct == 100
}

func setupEngineRead(seed int64, opt runOptions, dir string) (*runner, error) {
	return setupEngine(seed, opt.sc, dir, workload.Sysbench(10), false, 0)
}

func setupEngineWrite(seed int64, opt runOptions, dir string) (*runner, error) {
	// Duration only caps the transaction stream here: a deterministic
	// replay is not paced.
	return setupEngine(seed, opt.sc, dir, workload.TPCC(200), true, 100*time.Millisecond)
}

// setupEngine builds a sweep: the default configuration and a fixed
// Latin-hypercube design over the engine's knob space, replayed through
// minidb.Evaluator with no tuner in the loop, so every run measures the same
// configurations. A unit is one pass over the design.
func setupEngine(seed int64, sc scale, dir string, w workload.Workload, txn bool, duration time.Duration) (*runner, error) {
	space := knobs.RealEngineSpace()
	base := filepath.Join(dir, "engine")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, fmt.Errorf("engine directory: %w", err)
	}
	design := [][]float64{space.Defaults()}
	for _, u := range core.LHSInit(sc.SweepPoints, space.Dim(), designSeed) {
		design = append(design, space.Denormalize(space.Quantize(u)))
	}
	var measured time.Duration
	var measures int
	pass := func(name string, s int64, design [][]float64, tr *tracer) (unitResult, error) {
		st := tr.session()
		ev := minidb.NewEvaluator(filepath.Join(base, name), space, dbsim.IOPS, w, s)
		ev.Deterministic = true
		ev.Rows = sc.EngineRows
		ev.TxnMode = txn
		if duration > 0 {
			ev.Duration = duration
		}
		ev.Recorder = st.recorder()
		span := st.begin("session", obs.Int("points", len(design)))
		defer span.End()

		var out unitResult
		out.iterMs = make([]float64, 0, len(design))
		var sum sessionSummary
		hash := newTraceHash()
		h := make(bo.History, 0, len(design))
		for i, native := range design {
			sp := st.begin("step")
			msp := st.begin("measure")
			t0 := time.Now()
			m := ev.Measure(native)
			d := time.Since(t0)
			msp.End()
			sp.End()
			out.iterMs = append(out.iterMs, ms(d))
			sum.attempted++
			sum.replay += d
			sum.step += d
			measured += d
			measures++
			o := bo.Observation{Theta: space.Normalize(native), Res: m.Resource(dbsim.IOPS), Tps: m.TPS, Lat: m.LatencyP99Ms}
			hash.add(o.Res, o.Tps, o.Lat)
			if minidbFailure(m) || !finite(o.Res, o.Tps, o.Lat) {
				if i == 0 {
					return out, fmt.Errorf("check: the default configuration could not be replayed")
				}
				sum.failed++
				continue
			}
			h = append(h, o)
		}
		// The tuner's own scoring over the sweep's measurements: an
		// engine-counter checksum that moves only if engine behaviour does.
		sla := bo.SLA{LambdaTps: h[0].Tps, LambdaLat: h[0].Lat, Tolerance: 0.05}
		for _, o := range h[1:] {
			sum.postInit++
			if !sla.Feasible(o) {
				sum.violations++
			}
		}
		if best, ok := h.BestFeasible(sla); ok && h[0].Res > 0 {
			sum.improvementPct = (h[0].Res - best.Res) / h[0].Res * 100
		}
		sum.hash = hash.sum()
		out.sessions = []sessionSummary{sum}
		return out, nil
	}
	return &runner{
		workers: 1,
		sizes:   map[string]int{"points": len(design), "rows": int(sc.EngineRows), "dim": space.Dim()},
		close:   func() { os.RemoveAll(base) },
		unit: func(k int, tr *tracer) (unitResult, error) {
			return pass(fmt.Sprintf("pass-%d", k), seed+int64(k), design, tr)
		},
		warm: func() error {
			_, err := pass("warm", seed, design[:1], nil)
			measured, measures = 0, 0
			return err
		},
		layer: func(m map[string]float64) { m["minidb.measure_ms"] = ms(measured) / float64(measures) },
	}, nil
}
