// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 7). Each experiment is registered under the paper's
// artifact id ("fig3", "table4", ...) and emits a Report with the same rows
// or series the paper presents, regenerated from this repository's
// implementation. cmd/restune-bench runs them from the command line and
// bench_test.go exposes one testing.B benchmark per artifact.
package experiments

import (
	"errors"
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
	"repro/internal/par"
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
	// Recorder receives telemetry from every session an experiment
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
// Shared infrastructure: the session config, the simulated target, the
// characterizer, the repository builder and the method sets. The row table
// the sessions run on is in table.go.

// config is the session configuration every experiment starts from: the
// paper's settings under the experiment's acquisition budget and recorder,
// named name ("" keeps the method's default name). Base tasks turn on
// meta-learning toward a target with meta-feature mf, over a corpus of the
// config's own: a corpus is single-session state.
func (p Params) config(seed int64, name string, base []meta.CorpusTask, mf []float64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Name, cfg.Acq, cfg.Recorder = name, p.Acq, p.Recorder
	if base != nil {
		cfg.Corpus = meta.NewCorpus(base, meta.CorpusOptions{Recorder: p.Recorder})
		cfg.TargetMetaFeature = mf
	}
	return cfg
}

// halfRAM is the paper's buffer-pool policy for CPU experiments.
var halfRAM = dbsim.WithHalfRAMBufferPool()

// simEvaluator is a session's simulated target: w on instance hwName under
// the simulator options opts, its request rate calibrated to the instance,
// tuning resource over space. seed drives the measurement noise.
func simEvaluator(w workload.Workload, hwName string, space *knobs.Space, resource dbsim.ResourceKind, seed int64, opts ...dbsim.Option) core.Evaluator {
	w = calibrateRate(w, hwName, seed, opts...)
	return core.NewSimEvaluator(dbsim.New(dbsim.Instance(hwName), w.Profile, seed, opts...), space, resource)
}

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

// metaFeatureOf embeds one workload. The embedding reads only the
// workload's name and query mix, never its request rate.
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
		probeOpts = []dbsim.Option{halfRAM}
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
	space       string
	resource    dbsim.ResourceKind
	seed        int64
	iters       int
	limit       int
	halfRAMPool bool
}

var (
	repoMu    sync.Mutex
	repoCache = map[repoKey]*repo.Repository{}
)

// BuildRepository reproduces the paper's Data Repository for a knob space
// and resource kind: tuning histories for the repository workloads on
// instances A and B (34 tasks at the full workload set), collected by
// running the scratch tuner — the same process that generated the paper's
// meta-data. halfRAMPool selects the paper's fixed-buffer-pool policy for
// CPU/IO spaces. Builds are cached per parameter set, so the experiments of
// one process share them.
func BuildRepository(space *knobs.Space, resource dbsim.ResourceKind, p Params, halfRAMPool bool) (*repo.Repository, error) {
	key := repoKey{spaceKey(space), resource, p.Seed, p.RepoIters, p.RepoWorkloadLimit, halfRAMPool}
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
	var opts []dbsim.Option
	if halfRAMPool {
		opts = append(opts, halfRAM)
	}
	hws := []string{"A", "B"}
	var rows []row
	for _, hwName := range hws {
		for i, w := range wls {
			seed := p.Seed + int64(1000*i) + int64(len(hwName))
			rows = append(rows, row{w.Name + "@" + hwName, core.New(p.config(seed, "repo-build", nil, nil)),
				simRuns(w, hwName, space, resource, seed, opts...), p.RepoIters, 1})
		}
	}
	// The sessions and the embeddings (~36 ms each) share one fan-out, so
	// neither waits for the other. Each workload is embedded once, by its
	// instance-A row: rate calibration is all that differs on B, and the
	// embedding does not read the rate.
	results := make([]rowResult, len(rows))
	mfs := make([][]float64, len(wls))
	errs := make([]error, len(rows))
	par.ForEach(len(rows), func(i int) {
		res, err := rows[i].run()
		if err == nil && i < len(wls) {
			mfs[i], err = metaFeatureOf(wls[i], p.Seed)
		}
		if err != nil {
			errs[i] = fmt.Errorf("experiments: building repository task %s: %w", rows[i].key, err)
		}
		results[i] = res
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	r := &repo.Repository{}
	for i, res := range results {
		w := wls[i%len(wls)]
		r.Add(repo.FromResult(res.key, w.Name, hws[i/len(wls)], mfs[i%len(wls)], space, res.last))
	}

	repoMu.Lock()
	repoCache[key] = r
	repoMu.Unlock()
	return r, nil
}

func spaceKey(s *knobs.Space) string {
	names := make([]string, 0, s.Dim())
	for _, k := range s.Knobs() {
		names = append(names, k.Name)
	}
	return strings.Join(names, ",")
}

// methodSet is the comparison methods of Section 7 built for one target;
// each experiment lists the ones it reports, in its own figure's order.
type methodSet struct {
	def, restune, scratch, otterTune, cdbTune, iTuned core.Tuner
}

// newMethodSet builds the methods for one target: ResTune meta-learning
// over base toward the target's meta-feature mf, OtterTune-w-Con mapping
// workloads from otTasks, and the methods without a repository.
func newMethodSet(p Params, seed int64, base []meta.CorpusTask, mf []float64, otTasks []repo.TaskRecord) methodSet {
	cfg := p.config(seed, "", nil, nil)
	return methodSet{
		def:       baselines.NewDefault(cfg),
		restune:   core.New(p.config(seed, "", base, mf)),
		scratch:   core.New(p.config(seed, "ResTune-w/o-ML", nil, nil)),
		otterTune: baselines.NewOtterTuneWCon(cfg, otTasks),
		cdbTune:   baselines.NewCDBTuneWCon(cfg),
		iTuned:    baselines.NewITuned(cfg),
	}
}

// repoMethodSet is newMethodSet for target over the repository tasks pred
// keeps (nil keeps all), the target embedded by the characterizer.
func repoMethodSet(p Params, rep *repo.Repository, pred func(repo.TaskMeta) bool, space *knobs.Space, target workload.Workload, seed int64) (methodSet, error) {
	mf, err := metaFeatureOf(target, p.Seed)
	if err != nil {
		return methodSet{}, err
	}
	base, err := rep.CorpusTasks(space, seed, pred)
	if err != nil {
		return methodSet{}, err
	}
	tasks := rep.Tasks
	if pred != nil {
		tasks = rep.Filter(pred)
	}
	return newMethodSet(p, seed, base, mf, tasks), nil
}

// lhsSample measures ev at an n-point Latin hypercube design drawn from
// seed, each point quantized onto the knob lattice, as a task record's
// observations; internal keeps the internal metrics OtterTune-w-Con maps
// workloads on.
func lhsSample(ev core.Evaluator, n int, seed int64, internal bool) repo.TaskRecord {
	space := ev.Space()
	var task repo.TaskRecord
	for _, u := range core.LHSInit(n, space.Dim(), seed) {
		theta := space.Quantize(u)
		m := ev.Measure(space.Denormalize(theta))
		o := repo.ObservationRecord{Theta: theta, Res: m.Resource(ev.Resource()), Tps: m.TPS, Lat: m.LatencyP99Ms}
		if internal {
			o.Internal = m.Internal
		}
		task.Observations = append(task.Observations, o)
	}
	return task
}

// lhsTask samples ev at an LHS design of 2*RepoIters points (the case study
// builds its variant repository this way: "for each variation, we conduct
// LHS sampling to collect 200 observations") as the repository task id of
// workload w on instance hwName — internal metrics included, for
// OtterTune's mapping — and fits the task's base-learner on it. seed drives
// the design and the learner's hyperparameter search.
func lhsTask(p Params, id string, w workload.Workload, hwName string, ev core.Evaluator, seed int64) (repo.TaskRecord, *meta.BaseLearner, error) {
	mf, err := metaFeatureOf(w, p.Seed)
	if err != nil {
		return repo.TaskRecord{}, nil, err
	}
	space := ev.Space()
	task := lhsSample(ev, max(2*p.RepoIters, 12), seed, true)
	task.TaskID, task.Workload, task.Hardware, task.MetaFeature = id, w.Name, hwName, mf
	for _, k := range space.Knobs() {
		task.KnobNames = append(task.KnobNames, k.Name)
	}
	bl, err := meta.NewBaseLearnerSparse(id, w.Name, hwName, mf, task.History(), space.Dim(), seed, gp.SparseConfig{})
	if err != nil {
		return repo.TaskRecord{}, nil, err
	}
	return task, bl, nil
}
