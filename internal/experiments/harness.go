// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7). Each experiment is registered under the paper's
// artifact id ("fig3", "table4", ...) and emits a Report with the same rows
// or series the paper presents, regenerated from this repository's
// implementation. cmd/restune-bench runs them from the command line and
// bench_test.go exposes one testing.B benchmark per artifact.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/baselines"
	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/obs"
	"repro/internal/repo"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Params scales an experiment run. The paper's full protocol (200
// iterations, 3 runs, a 34-task repository) is expensive; Quick() keeps the
// same structure at reduced budgets so the whole suite runs in minutes.
type Params struct {
	// Seed drives all randomness.
	Seed int64
	// Iters is the tuning budget per session (200 in the paper).
	Iters int
	// RepoIters is the observation count per repository task (the paper's
	// repository averages ~190 per task).
	RepoIters int
	// RepoWorkloadLimit caps the number of distinct repository workloads
	// (17 in the paper); 0 means no cap.
	RepoWorkloadLimit int
	// Runs is how many times each session repeats with different seeds
	// (3 in the paper); series are averaged.
	Runs int
	// Acq configures acquisition optimization for every BO method.
	Acq bo.OptimizerConfig
	// Recorder receives telemetry from the ResTune sessions an experiment
	// runs (nil records nothing). Telemetry only — results never depend on
	// it. Sessions from different experiments and runs share the recorder,
	// so consumers should treat the stream as an aggregate.
	Recorder obs.Recorder
}

// Quick returns parameters for a fast, structurally complete run.
func Quick() Params {
	return Params{
		Seed: 1, Iters: 40, RepoIters: 30, RepoWorkloadLimit: 8, Runs: 1,
		Acq: bo.OptimizerConfig{RandomCandidates: 256, LocalStarts: 4, LocalSteps: 20, StepScale: 0.1},
	}
}

// Full returns the paper's protocol.
func Full() Params {
	return Params{
		Seed: 1, Iters: 200, RepoIters: 60, RepoWorkloadLimit: 0, Runs: 3,
		Acq: bo.DefaultOptimizerConfig(),
	}
}

// Report is an experiment's output: formatted lines mirroring the paper's
// table rows, plus named numeric series for figure-style artifacts.
type Report struct {
	ID     string
	Title  string
	Lines  []string
	Series map[string][]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Series: make(map[string][]float64)}
}

// Addf appends a formatted line.
func (r *Report) Addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// AddSeries stores a named numeric series.
func (r *Report) AddSeries(name string, vals []float64) {
	r.Series[name] = append([]float64(nil), vals...)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Params) (*Report, error)

type entry struct {
	Title string
	Run   Runner
}

var registry = map[string]entry{}

func register(id, title string, run Runner) {
	registry[id] = entry{Title: title, Run: run}
}

// Run executes the experiment with the given id.
func Run(id string, p Params) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	return e.Run(p)
}

// IDs lists registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title.
func Title(id string) string { return registry[id].Title }

// ---------------------------------------------------------------------------
// Shared infrastructure: characterizer, repository builder, method sets.

var (
	charMu    sync.Mutex
	charCache = map[int64]*workload.Characterizer{}
)

// characterizer returns the (cached) workload-characterization pipeline,
// trained on the full workload corpus.
func characterizer(seed int64) (*workload.Characterizer, error) {
	charMu.Lock()
	defer charMu.Unlock()
	if c, ok := charCache[seed]; ok {
		return c, nil
	}
	corpus := append(workload.Five(),
		workload.TwitterVariant(1), workload.TwitterVariant(2), workload.TwitterVariant(3),
		workload.TwitterVariant(4), workload.TwitterVariant(5))
	c, err := workload.NewCharacterizer(corpus, seed)
	if err != nil {
		return nil, err
	}
	charCache[seed] = c
	return c, nil
}

// metaFeatureOf embeds one workload.
func metaFeatureOf(w workload.Workload, seed int64) ([]float64, error) {
	ch, err := characterizer(seed)
	if err != nil {
		return nil, err
	}
	// 10000 samples keep meta-feature noise well below the smallest
	// between-variant mix difference (~2% INSERT share).
	return ch.MetaFeature(w, 10000, rng.Derive(seed, "mf:"+w.Name)), nil
}

// calibrateRate adapts a workload's client request rate to an instance,
// mirroring the paper's protocol ("the request rates ... are set for
// benchmark workloads by observing throughput under DBA's default
// configuration"): on instance A the paper's published rates apply
// unchanged; elsewhere the rate is capped at 90% of the instance's
// open-loop default-configuration throughput so the default runs busy but
// not saturated.
func calibrateRate(w workload.Workload, hwName string, seed int64, opts ...dbsim.Option) workload.Workload {
	if hwName == "A" || w.Profile.RequestRate <= 0 {
		return w
	}
	open := w
	open.Profile.RequestRate = 0
	// The probe runs the DBA default; when no buffer-pool policy is given
	// (memory experiments, where the pool is a knob), the DBA default is
	// still half of RAM.
	probeOpts := opts
	if len(probeOpts) == 0 {
		probeOpts = []dbsim.Option{dbsim.WithHalfRAMBufferPool()}
	}
	sim := dbsim.New(dbsim.Instance(hwName), open.Profile, seed, probeOpts...)
	capacity := sim.EvalNoiseless(nil, nil).TPS
	if cap90 := 0.9 * capacity; cap90 < w.Profile.RequestRate {
		return w.WithRequestRate(cap90)
	}
	return w
}

// RepoWorkloads returns the paper's 17 distinct repository workloads: the
// five evaluation workloads, the five Twitter variants, the larger
// SYSBENCH/TPC-C settings, and rate/size variations of the production
// workloads.
func RepoWorkloads() []workload.Workload {
	return []workload.Workload{
		workload.Sysbench(10),
		workload.Sysbench(30),
		workload.Sysbench100G(),
		workload.TPCC(200),
		workload.TPCC(500),
		workload.TPCC100G(),
		workload.Twitter(),
		workload.TwitterVariant(1),
		workload.TwitterVariant(2),
		workload.TwitterVariant(3),
		workload.TwitterVariant(4),
		workload.TwitterVariant(5),
		workload.Hotel(),
		workload.Hotel().WithRequestRate(8000),
		workload.Sales(),
		workload.Sales().WithRequestRate(9000),
		workload.Sysbench(10).WithRequestRate(16000),
	}
}

type repoKey struct {
	space    string
	resource dbsim.ResourceKind
	seed     int64
	iters    int
	limit    int
	bp       string
}

var (
	repoMu    sync.Mutex
	repoCache = map[repoKey]*repo.Repository{}
)

// buildRepository reproduces the paper's Data Repository for a knob space
// and resource kind: tuning histories for the repository workloads on
// instances A and B (34 tasks at the full workload set), collected by
// running the scratch tuner — the same process that generated the paper's
// meta-data.
func buildRepository(space *knobs.Space, resource dbsim.ResourceKind, p Params, bufferPool func(hw dbsim.Hardware) int64) (*repo.Repository, error) {
	key := repoKey{
		space:    spaceKey(space),
		resource: resource,
		seed:     p.Seed,
		iters:    p.RepoIters,
		limit:    p.RepoWorkloadLimit,
		bp:       bpKey(bufferPool),
	}
	repoMu.Lock()
	if r, ok := repoCache[key]; ok {
		repoMu.Unlock()
		return r, nil
	}
	repoMu.Unlock()

	wls := RepoWorkloads()
	if p.RepoWorkloadLimit > 0 && len(wls) > p.RepoWorkloadLimit {
		wls = wls[:p.RepoWorkloadLimit]
	}
	// The meta-feature characterizer is trained once up front so the
	// parallel task builds below only read it.
	if _, err := characterizer(p.Seed); err != nil {
		return nil, err
	}
	type job struct {
		w      workload.Workload
		hwName string
		seed   int64
	}
	var jobs []job
	for _, hwName := range []string{"A", "B"} {
		for i, w := range wls {
			jobs = append(jobs, job{w, hwName, p.Seed + int64(1000*i) + int64(len(hwName))})
		}
	}
	records, err := parallelMap(len(jobs), func(ji int) (repo.TaskRecord, error) {
		j := jobs[ji]
		hw := dbsim.Instance(j.hwName)
		opts := []dbsim.Option{}
		if bufferPool != nil {
			opts = append(opts, dbsim.WithFixedBufferPool(bufferPool(hw)))
		}
		w := calibrateRate(j.w, j.hwName, j.seed, opts...)
		sim := dbsim.New(hw, w.Profile, j.seed, opts...)
		ev := core.NewSimEvaluator(sim, space, resource)
		cfg := core.DefaultConfig(j.seed)
		cfg.Acq = p.Acq
		cfg.Name = "repo-build"
		cfg.Recorder = p.Recorder
		res, err := core.New(cfg).Run(ev, p.RepoIters)
		if err != nil {
			return repo.TaskRecord{}, fmt.Errorf("experiments: building repository task %s/%s: %w", w.Name, j.hwName, err)
		}
		mf, err := metaFeatureOf(w, p.Seed)
		if err != nil {
			return repo.TaskRecord{}, err
		}
		return repo.FromResult(
			fmt.Sprintf("%s@%s", w.Name, j.hwName), w.Name, j.hwName, mf, space, res), nil
	})
	if err != nil {
		return nil, err
	}
	r := &repo.Repository{}
	for _, rec := range records {
		r.Add(rec)
	}

	repoMu.Lock()
	repoCache[key] = r
	repoMu.Unlock()
	return r, nil
}

// BuildRepository is the exported repository builder used by
// cmd/restune-repo: it reproduces the paper's data-repository collection
// (tuning histories for the repository workloads on instances A and B) for
// a knob space and resource kind. halfRAMPool selects the paper's
// fixed-buffer-pool policy for CPU/IO spaces.
func BuildRepository(space *knobs.Space, resource dbsim.ResourceKind, p Params, halfRAMPool bool) (*repo.Repository, error) {
	var bp func(dbsim.Hardware) int64
	if halfRAMPool {
		bp = halfRAM
	}
	return buildRepository(space, resource, p, bp)
}

func spaceKey(s *knobs.Space) string {
	names := make([]string, 0, s.Dim())
	for _, k := range s.Knobs() {
		names = append(names, k.Name)
	}
	return strings.Join(names, ",")
}

func bpKey(f func(dbsim.Hardware) int64) string {
	if f == nil {
		return "knob"
	}
	// Distinguish fixed-pool policies by their value on a reference box.
	return fmt.Sprintf("fixed:%d", f(dbsim.Instance("E")))
}

// halfRAM is the paper's buffer-pool policy for CPU experiments.
func halfRAM(hw dbsim.Hardware) int64 { return hw.RAMBytes / 2 }

// sessionConfig is the paper's session configuration with the experiment's
// acquisition settings and recorder.
func sessionConfig(p Params, seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Acq = p.Acq
	cfg.Recorder = p.Recorder
	return cfg
}

// restuneFor builds the meta-boosted ResTune tuner for a target workload
// from a repository subset.
func restuneFor(p Params, r *repo.Repository, space *knobs.Space, target workload.Workload, seed int64, pred func(repo.TaskRecord) bool) (core.Tuner, error) {
	corpus, err := r.Corpus(space, seed, pred, meta.CorpusOptions{})
	if err != nil {
		return nil, err
	}
	mf, err := metaFeatureOf(target, p.Seed)
	if err != nil {
		return nil, err
	}
	cfg := sessionConfig(p, seed)
	cfg.Corpus = corpus
	cfg.TargetMetaFeature = mf
	return core.New(cfg), nil
}

// scratchTuner is ResTune-w/o-ML with experiment acquisition settings.
func scratchTuner(p Params, seed int64) core.Tuner {
	cfg := sessionConfig(p, seed)
	cfg.Name = "ResTune-w/o-ML"
	return core.New(cfg)
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

// methodSet is the comparison methods of Section 7 built for one target
// with the experiment's acquisition settings; each experiment lists the
// ones it reports, in its own figure's order.
type methodSet struct {
	def, restune, scratch, otterTune, cdbTune, iTuned core.Tuner
}

// newMethodSet builds the methods around an already-built ResTune tuner;
// otTasks is the repository subset OtterTune-w-Con maps workloads from.
func newMethodSet(p Params, seed int64, restune core.Tuner, otTasks []repo.TaskRecord) methodSet {
	cfg := sessionConfig(p, seed)
	return methodSet{
		def:       baselines.NewDefault(cfg),
		restune:   restune,
		scratch:   scratchTuner(p, seed),
		otterTune: baselines.NewOtterTuneWCon(cfg, otTasks),
		cdbTune:   baselines.NewCDBTuneWCon(cfg),
		iTuned:    baselines.NewITuned(cfg),
	}
}

// lhsTask samples a simulated workload's response surface at an LHS design
// of 2*RepoIters points (the case study builds its variant repository this
// way: "for each variation, we conduct LHS sampling to collect 200
// observations") and returns the task record — internal metrics included,
// for OtterTune's mapping — with the base-learner fitted on it. seed drives
// the design and the learner's hyperparameter search.
func lhsTask(p Params, id string, w workload.Workload, hwName string, sim *dbsim.Simulator,
	space *knobs.Space, resource dbsim.ResourceKind, seed int64) (repo.TaskRecord, *meta.BaseLearner, error) {
	n := p.RepoIters * 2
	if n < 12 {
		n = 12
	}
	mf, err := metaFeatureOf(w, p.Seed)
	if err != nil {
		return repo.TaskRecord{}, nil, err
	}
	task := repo.TaskRecord{TaskID: id, Workload: w.Name, Hardware: hwName, MetaFeature: mf}
	for _, k := range space.Knobs() {
		task.KnobNames = append(task.KnobNames, k.Name)
	}
	for _, u := range core.LHSInit(n, space.Dim(), seed) {
		theta := space.Quantize(u)
		m := sim.Eval(space, space.Denormalize(theta))
		task.Observations = append(task.Observations, repo.ObservationRecord{
			Theta: theta, Res: m.Resource(resource), Tps: m.TPS, Lat: m.LatencyP99Ms,
			Internal: m.Internal,
		})
	}
	bl, err := meta.NewBaseLearnerSparse(id, w.Name, hwName, mf, task.History(), space.Dim(), seed, gp.SparseConfig{})
	if err != nil {
		return repo.TaskRecord{}, nil, err
	}
	return task, bl, nil
}
