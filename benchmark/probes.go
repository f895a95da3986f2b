package main

// probes.go times one public function of each layer at a fixed operating
// point built from the seed. A probe says what a single call costs; what the
// calls add up to inside a session is the traced workload's business. Probes
// run after the timed region of a traced run, on every workload, so that
// every layer metric is reported by every traced run.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/mat"
	"repro/internal/meta"
	"repro/internal/minidb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/repo"
	"repro/internal/rng"
	"repro/internal/workload"
)

// probe returns the median duration of f: at least probeMinCalls calls, and
// more, up to probeMaxCalls, while the probe has used less than probeBudget.
// prep, if not nil, runs untimed before every call.
func probe(prep, f func()) time.Duration {
	const (
		probeMinCalls = 3
		probeMaxCalls = 20
		probeBudget   = 150 * time.Millisecond
	)
	var ds []float64
	var spent time.Duration
	for len(ds) < probeMaxCalls && (len(ds) < probeMinCalls || spent < probeBudget) {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		d := time.Since(t0)
		spent += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}

// firstError keeps the first error a probed closure reports; the probe loop
// itself cannot return one.
type firstError struct{ err error }

func (f *firstError) keep(e error) {
	if e != nil && f.err == nil {
		f.err = e
	}
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink float64

func runProbes(vals map[string]float64, opt runOptions) error {
	dir := filepath.Join(opt.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("probe directory: %w", err)
	}
	defer os.RemoveAll(dir)
	for _, p := range []func(map[string]float64, runOptions, string) error{
		probeMat, probeModel, probeMeta, probeCorpus, probeWorkload, probeMinidb, probeJSONL,
	} {
		if err := p(vals, opt, dir); err != nil {
			return err
		}
	}
	return nil
}

// simHistory samples n configurations of a knob space on the simulator: the
// kind of history a session's surrogate is fitted to.
func simHistory(n int, space *knobs.Space, w workload.Workload, seed int64) bo.History {
	sim := dbsim.New(dbsim.Instance("A"), w.Profile, seed, dbsim.WithHalfRAMBufferPool())
	h := make(bo.History, 0, n)
	for _, u := range core.LHSInit(n, space.Dim(), seed) {
		theta := space.Quantize(u)
		m := sim.Eval(space, space.Denormalize(theta))
		h = append(h, bo.Observation{Theta: theta, Res: m.CPUUtilPct, Tps: m.TPS, Lat: m.LatencyP99Ms})
	}
	return h
}

func randomPoints(n, dim int, r *rand.Rand) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for d := range X[i] {
			X[i][d] = r.Float64()
		}
	}
	return X
}

func probeMat(vals map[string]float64, opt runOptions, _ string) error {
	n := opt.sc.ProbeCholN
	r := rng.Derive(opt.seed, "probe-mat")
	// A kernel matrix over random points plus a diagonal: what gp factors.
	pts := randomPoints(n, 8, r)
	k := gp.NewMatern52(1, 0.5)
	a := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := k.Eval(pts[i], pts[j])
			if i == j {
				v += 0.01
			}
			a.Set(i, j, v)
		}
	}
	var c mat.Cholesky
	var fe firstError
	vals["mat.chol_factor_ms.n256"] = ms(probe(nil, func() { fe.keep(c.Factor(a)) }))
	if fe.err != nil {
		return fmt.Errorf("probe mat: %w", fe.err)
	}
	lead := mat.NewDense(n-1, n-1)
	for i := 0; i < n-1; i++ {
		copy(lead.Row(i), a.Row(i)[:n-1])
	}
	row := append([]float64(nil), a.Row(n-1)...)
	var ca mat.Cholesky
	vals["mat.chol_append_us.n256"] = us(probe(
		func() { fe.keep(ca.Factor(lead)) },
		func() { fe.keep(ca.Append(row)) }))
	if fe.err != nil {
		return fmt.Errorf("probe mat: %w", fe.err)
	}
	b := mat.NewDense(n, 64)
	for i := 0; i < n; i++ {
		for j := 0; j < 64; j++ {
			b.Set(i, j, r.Float64())
		}
	}
	dst := mat.NewDense(n, 64)
	vals["mat.solve_lower_batch_us.n256"] = us(probe(nil, func() { c.SolveLowerBatchTo(dst, b) }))
	sink += dst.At(n-1, 0)
	return nil
}

// probeModel covers gp, bo and dbsim on one simulator history.
func probeModel(vals map[string]float64, opt runOptions, _ string) error {
	space := knobs.CPUSpace()
	dim := space.Dim()
	n := opt.sc.ProbeHistory
	w := workload.Twitter()
	h := simHistory(opt.sc.ProbeSparseN, space, w, opt.seed)
	r := rng.Derive(opt.seed, "probe-model")
	X := randomPoints(64, dim, r)
	var fe firstError
	keep := fe.keep

	sim := dbsim.New(dbsim.Instance("A"), w.Profile, opt.seed, dbsim.WithHalfRAMBufferPool())
	native := space.Defaults()
	vals["dbsim.eval_us"] = us(probe(nil, func() { sink += sim.Eval(space, native).TPS }))

	x := h.Thetas()
	y := bo.NewStandardizer(h.Values(bo.Res)).ApplyAll(h.Values(bo.Res))
	newGP := func() *gp.GP { return gp.New(gp.NewMatern52(1, 0.5), 0.01) }

	var g *gp.GP
	vals["gp.fit_ms.n200"] = ms(probe(func() { g = newGP() }, func() { keep(g.Fit(x[:n], y[:n])) }))
	vals["gp.fit_append_us.n200"] = us(probe(
		func() { g = newGP(); keep(g.Fit(x[:n-1], y[:n-1])) },
		func() { keep(g.Fit(x[:n], y[:n])) }))
	seeds := int64(0)
	vals["gp.hyper_search_ms.n200"] = ms(probe(nil, func() {
		seeds++
		sink += gp.FitHyperparams(g, gp.DefaultFitConfig(), rand.New(rand.NewSource(opt.seed+seeds)))
	}))
	mu, variance := make([]float64, len(X)), make([]float64, len(X))
	vals["gp.predict_batch_us.n200"] = us(probe(nil, func() { g.PredictBatch(X, mu, variance) }))
	sink += mu[0] + variance[0]

	sparse := gp.DefaultSparseConfig()
	if len(x) <= sparse.Threshold {
		// Smoke-test sizes: keep the probe on the sparse path.
		sparse = gp.SparseConfig{Threshold: len(x) / 2, MaxAnchors: len(x) / 2}
	}
	vals["gp.sparse_fit_ms.n320"] = ms(probe(
		func() { g = newGP(); g.SetSparse(sparse) },
		func() { keep(g.Fit(x, y)) }))
	if !g.SparseStats().Active {
		keep(fmt.Errorf("sparse fit at n=%d did not activate", len(x)))
	}

	var tri *bo.TriGP
	vals["bo.trigp_fit_ms.full"] = ms(probe(
		func() { tri = bo.NewTriGP(dim, opt.seed) },
		func() { keep(tri.FitWithBudget(h[:n], 0)) }))
	// Warm fits as a session makes them between full searches: the history
	// grows by one observation and the search gets a budget of six.
	const warm = 8
	tri = bo.NewTriGP(dim, opt.seed)
	keep(tri.FitWithBudget(h[:n-warm], 0))
	k := n - warm
	vals["bo.trigp_fit_ms.warm"] = ms(probe(
		func() {
			if k++; k > n {
				k = n
			}
		},
		func() { keep(tri.FitWithBudget(h[:k], 6)) }))
	if fe.err != nil {
		return fmt.Errorf("probe model: %w", fe.err)
	}

	// Acquisition over the final surrogate, as Session.runIteration builds it.
	sla := bo.SLA{LambdaTps: h[0].Tps, LambdaLat: h[0].Lat, Tolerance: 0.05}
	cons := tri.RawConstraints(sla)
	best := math.NaN()
	if b, ok := h[:n].BestFeasible(sla); ok {
		best = tri.Standardizer(bo.Res).Apply(b.Res)
	}
	acq := func(p []float64) float64 { return bo.CEI(tri, p, best, cons) }
	acqBatch := func(P [][]float64, out []float64) { bo.CEIBatch(tri, P, best, cons, out) }
	ar := rng.Derive(opt.seed, "probe-acq")
	vals["bo.optimize_acq_ms"] = ms(probe(nil, func() {
		sink += bo.OptimizeAcqBatch(acq, acqBatch, dim, bo.DefaultOptimizerConfig(), nil, ar)[0]
	}))
	out := make([]float64, len(X))
	vals["bo.cei_batch_us"] = us(probe(nil, func() { bo.CEIBatch(tri, X, best, cons, out) }))
	sink += out[0]
	return nil
}

// probeMeta covers meta on the exact path and the repository round trip,
// both at the 34-task scale of meta-34.
func probeMeta(vals map[string]float64, opt runOptions, dir string) error {
	space := knobs.CPUSpace()
	dim := space.Dim()
	target := workload.Hotel()
	r, err := buildRepository(opt.seed, opt.sc, space)
	if err != nil {
		return fmt.Errorf("probe meta: repository: %w", err)
	}
	mf, err := embed(target, opt.seed, 2000)
	if err != nil {
		return fmt.Errorf("probe meta: %w", err)
	}

	tasks, err := r.CorpusTasks(space, opt.seed, nil)
	if err != nil {
		return fmt.Errorf("probe meta: corpus tasks: %w", err)
	}
	var fe firstError
	i := 0
	vals["meta.corpus_fit_ms"] = ms(probe(nil, func() {
		_, e := tasks[i%len(tasks)].Fit()
		fe.keep(e)
		i++
	}))
	if fe.err != nil {
		return fmt.Errorf("probe meta: fit: %w", fe.err)
	}

	corpus, err := r.Corpus(space, opt.seed, nil, meta.CorpusOptions{})
	if err != nil {
		return fmt.Errorf("probe meta: corpus: %w", err)
	}
	if err := corpus.Activate(mf); err != nil {
		return fmt.Errorf("probe meta: activate: %w", err)
	}
	base, _, err := corpus.ActiveLearners()
	if err != nil {
		return fmt.Errorf("probe meta: learners: %w", err)
	}
	h := simHistory(opt.sc.ProbeHistory/2, space, target, opt.seed)
	tri := bo.NewTriGP(dim, opt.seed)
	if err := tri.FitWithBudget(h, 0); err != nil {
		return fmt.Errorf("probe meta: target: %w", err)
	}
	tl := meta.NewBaseLearnerFromSurrogate("target", "target", "target", mf, h, tri)

	var w []float64
	k := 0
	vals["meta.dynamic_weights_ms.n34"] = ms(probe(nil, func() {
		k++
		w = meta.DynamicWeightsOpts(base, tl, meta.DynamicOptions{Samples: 100}, rng.Derive(opt.seed, fmt.Sprintf("dyn:%d", k)))
	}))
	vals["meta.static_weights_us.n34"] = us(probe(nil, func() {
		sink += meta.StaticWeights(base, mf, true, meta.EpanechnikovBandwidth)[0]
	}))
	ens := meta.NewEnsemble(base, tl, w)
	X := randomPoints(64, dim, rng.Derive(opt.seed, "probe-meta"))
	var post bo.BatchPosterior
	post.Resize(len(X))
	vals["meta.ensemble_predict_batch_us.n34"] = us(probe(nil, func() { ens.PredictBatch(X, &post) }))

	path := filepath.Join(dir, "repo.json")
	vals["repo.save_ms"] = ms(probe(nil, func() { fe.keep(r.Save(path)) }))
	if fe.err != nil {
		return fmt.Errorf("probe repo: %w", fe.err)
	}
	if st, e := os.Stat(path); e == nil {
		vals["repo.file_kb"] = float64(st.Size()) / 1024
	}
	vals["repo.load_ms"] = ms(probe(nil, func() {
		_, e := repo.Load(path)
		fe.keep(e)
	}))
	var lazy *repo.LazyRepository
	vals["repo.open_lazy_ms"] = ms(probe(
		func() {
			if lazy != nil {
				lazy.Close()
			}
		},
		func() {
			l, e := repo.OpenLazy(path)
			fe.keep(e)
			lazy = l
		}))
	if fe.err != nil {
		return fmt.Errorf("probe repo: %w", fe.err)
	}
	defer lazy.Close()
	t := 0
	vals["repo.task_load_us"] = us(probe(nil, func() {
		_, e := lazy.Task(t % lazy.Len())
		fe.keep(e)
		t++
	}))
	if fe.err != nil {
		return fmt.Errorf("probe repo: %w", fe.err)
	}
	return nil
}

// probeCorpus covers meta on the shortlist path at the corpus size of
// fleet-1k.
func probeCorpus(vals map[string]float64, opt runOptions, _ string) error {
	const metaDim = 16
	dim := knobs.CPUSpace().Dim()
	tasks := meta.SyntheticCorpus(opt.sc.ProbeCorpusN, metaDim, dim, opt.sc.FleetHistLen, opt.seed)
	q := tasks[len(tasks)/2].MetaFeature
	var fe firstError
	vals["meta.corpus_activate_ms.n1000"] = ms(probe(nil, func() {
		fe.keep(meta.NewCorpus(tasks, meta.CorpusOptions{ExactThreshold: -1}).Activate(q))
	}))
	vecs := make([][]float64, len(tasks))
	for i, t := range tasks {
		vecs[i] = t.MetaFeature
	}
	ix, e := meta.NewCorpusIndex(vecs, meta.IndexOptions{})
	if e != nil {
		return fmt.Errorf("probe corpus: index: %w", e)
	}
	vals["meta.index_query_us.n1000"] = us(probe(nil, func() {
		_, e := ix.TopK(q, meta.DefaultShortlistK)
		fe.keep(e)
	}))
	if fe.err != nil {
		return fmt.Errorf("probe corpus: %w", fe.err)
	}
	return nil
}

func probeWorkload(vals map[string]float64, opt runOptions, _ string) error {
	n := opt.sc.ProbeQueries
	var ch *workload.Characterizer
	var fe firstError
	vals["workload.characterizer_train_ms"] = ms(probe(nil, func() {
		c, e := workload.NewCharacterizer(characterizerCorpus(), opt.seed)
		fe.keep(e)
		ch = c
	}))
	if fe.err != nil {
		return fmt.Errorf("probe workload: %w", fe.err)
	}
	w := workload.Hotel()
	r := rng.Derive(opt.seed, "probe-workload")
	vals["workload.meta_feature_ms"] = ms(probe(nil, func() { sink += ch.MetaFeature(w, n, r)[0] }))
	var stream []string
	vals["workload.generate_us_per_stmt"] = us(probe(nil, func() { stream = w.Generate(n, r) })) / float64(n)
	vals["replay.extract_templates_ms"] = ms(probe(nil, func() { sink += float64(len(replay.ExtractTemplates(stream))) }))
	return nil
}

// driveStats is one closed-loop direct drive of the engine.
type driveStats struct {
	openMs, loadMs, closeMs float64
	execUs                  []float64
	wall                    time.Duration
	before, after           minidb.Stats
	planHits, planMisses    uint64
}

// driveMinidb opens an engine with the given pool, loads rows, and executes
// stmts statements from each of clients cloned executors, each client
// sending its next statement when the previous one returns. The engine's
// own consistency check must pass before it is closed.
func driveMinidb(dir string, poolBytes int64, rows int64, streams [][]string) (driveStats, error) {
	var st driveStats
	cfg := minidb.DefaultTestConfig(dir)
	cfg.BufferPoolBytes = poolBytes
	t0 := time.Now()
	db, err := minidb.Open(cfg)
	if err != nil {
		return st, fmt.Errorf("open: %w", err)
	}
	st.openMs = ms(time.Since(t0))
	ex := minidb.NewExecutor(db, rows)
	t0 = time.Now()
	if err := ex.Load("sbtest", rows); err != nil {
		db.Close()
		return st, fmt.Errorf("load: %w", err)
	}
	st.loadMs = ms(time.Since(t0))

	st.before = db.Stats()
	lat := make([][]float64, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	start := time.Now()
	for c, stream := range streams {
		wg.Add(1)
		go func(c int, stream []string, exc *minidb.Executor) {
			defer wg.Done()
			lat[c] = make([]float64, 0, len(stream))
			for _, sql := range stream {
				s0 := time.Now()
				if _, err := exc.Exec(sql); err != nil && errs[c] == nil {
					errs[c] = err
				}
				lat[c] = append(lat[c], us(time.Since(s0)))
			}
		}(c, stream, ex.Clone())
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.after = db.Stats()
	st.planHits, st.planMisses = ex.PlanCacheStats()
	for c := range lat {
		st.execUs = append(st.execUs, lat[c]...)
		if errs[c] != nil {
			db.Close()
			return st, fmt.Errorf("exec: %w", errs[c])
		}
	}
	if err := db.CheckConsistency(); err != nil {
		db.Close()
		return st, fmt.Errorf("check: consistency after the direct drive: %w", err)
	}
	t0 = time.Now()
	if err := db.Close(); err != nil {
		return st, fmt.Errorf("close: %w", err)
	}
	st.closeMs = ms(time.Since(t0))
	return st, nil
}

// probeMinidb drives the engine directly: one client and nproc clients on a
// pool that holds the whole table, and one client on a pool an eighth of the
// table's size.
func probeMinidb(vals map[string]float64, opt runOptions, dir string) error {
	rows := opt.sc.ProbeRows // 8000 rows are about 250 pages of 4 KiB
	const fitsPool = 16 << 20
	smallPool := rows * 16 // an eighth of the table
	w := workload.Sysbench(10)
	nproc := opt.workers
	r := rng.Derive(opt.seed, "probe-minidb")
	split := func(clients int) [][]string {
		streams := make([][]string, clients)
		for c := range streams {
			streams[c] = w.Generate(opt.sc.ProbeStmts/clients, r)
		}
		return streams
	}
	stmts := func(st driveStats) float64 { return float64(len(st.execUs)) }

	one, err := driveMinidb(filepath.Join(dir, "db-c1"), fitsPool, rows, split(1))
	if err != nil {
		return fmt.Errorf("probe minidb (1 client): %w", err)
	}
	many, err := driveMinidb(filepath.Join(dir, "db-cn"), fitsPool, rows, split(nproc))
	if err != nil {
		return fmt.Errorf("probe minidb (%d clients): %w", nproc, err)
	}
	small, err := driveMinidb(filepath.Join(dir, "db-small"), smallPool, rows, split(1))
	if err != nil {
		return fmt.Errorf("probe minidb (small pool): %w", err)
	}

	vals["minidb.open_ms"] = one.openMs
	vals["minidb.load_ms_per_krow"] = one.loadMs / (float64(rows) / 1000)
	vals["minidb.close_ms"] = one.closeMs
	vals["minidb.exec_us_p50"] = quantile(one.execUs, 0.5)
	vals["minidb.exec_us_p99"] = quantile(one.execUs, 0.99)
	vals["minidb.stmts_per_s.c1"] = stmts(one) / one.wall.Seconds()
	vals["minidb.stmts_per_s.cN"] = stmts(many) / many.wall.Seconds()
	vals["minidb.phys_writes_per_stmt"] = float64(one.after.PhysWrites-one.before.PhysWrites) / stmts(one)
	if commits := one.after.Commits - one.before.Commits; commits > 0 {
		vals["minidb.wal_syncs_per_commit"] = float64(one.after.WALSyncs-one.before.WALSyncs) / float64(commits)
	}
	vals["minidb.wal_group_commits"] = float64(many.after.WALGroupCommits - many.before.WALGroupCommits)
	vals["minidb.lock_waits"] = float64(many.after.LockWaits - many.before.LockWaits)
	if n := one.planHits + one.planMisses; n > 0 {
		vals["minidb.plan_cache_hit_rate"] = float64(one.planHits) / float64(n)
	}
	hits := small.after.BufferHits - small.before.BufferHits
	misses := small.after.BufferMisses - small.before.BufferMisses
	if hits+misses > 0 {
		vals["minidb.pool_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	vals["minidb.phys_reads_per_stmt"] = float64(small.after.PhysicalReads-small.before.PhysicalReads) / stmts(small)
	return nil
}

// probeJSONL pairs short sessions of cbo-200's shape with and without the
// program's own JSONL recorder writing to a discarded stream: same seed, so
// the same work, and the difference is what the recorder costs.
func probeJSONL(vals map[string]float64, opt runOptions, _ string) error {
	space := knobs.CPUSpace()
	w := workload.Twitter()
	run := func(rec obs.Recorder) (time.Duration, error) {
		sim := dbsim.New(dbsim.Instance("A"), w.Profile, opt.seed, dbsim.WithHalfRAMBufferPool())
		cfg := baseConfig(opt.seed)
		cfg.Recorder = rec
		t0 := time.Now()
		_, err := core.New(cfg).Run(core.NewSimEvaluator(sim, space, dbsim.CPUPct), opt.sc.ProbeJSONLIter)
		return time.Since(t0), err
	}
	var plain, logged []float64
	for i := 0; i < 3; i++ {
		d, err := run(nil)
		if err != nil {
			return fmt.Errorf("probe jsonl: %w", err)
		}
		plain = append(plain, float64(d))
		d, err = run(obs.NewJSONL(io.Discard))
		if err != nil {
			return fmt.Errorf("probe jsonl: %w", err)
		}
		logged = append(logged, float64(d))
	}
	vals["obs.jsonl_overhead_pct"] = 100 * (median(logged)/median(plain) - 1)
	return nil
}
