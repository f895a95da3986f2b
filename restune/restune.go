// Package restune is the public API of the ResTune reproduction: resource-
// oriented DBMS knob tuning under SLA constraints, boosted by meta-learning
// (Zhang et al., SIGMOD 2021).
//
// The package re-exports the library's building blocks through stable
// aliases so downstream users never import internal paths:
//
//   - knob catalogues and configuration spaces (MySQLKnobs, CPUKnobs, ...),
//   - the simulated DBMS substrate standing in for MySQL RDS (NewSimulator,
//     Instance) together with the paper's workloads (Sysbench, TPCC,
//     Twitter, Hotel, Sales),
//   - the ResTune tuner (New) and every baseline from the paper's
//     evaluation (Default, ITuned, OtterTuneWithConstraints,
//     CDBTuneWithConstraints, GridSearch),
//   - the data repository and workload characterization used for
//     meta-learning (NewRepository, LoadRepository, NewCharacterizer), and
//   - the experiment harness regenerating every table and figure
//     (RunExperiment, ExperimentIDs).
//
// A minimal session:
//
//	w := restune.Twitter()
//	sim := restune.NewSimulator(restune.Instance("A"), w.Profile, 1,
//	    restune.WithHalfRAMBufferPool())
//	ev := restune.NewEvaluator(sim, restune.CPUKnobs(), restune.CPU)
//	tuner := restune.New(restune.DefaultConfig(1))
//	result, err := tuner.Run(ev, 50)
package restune

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dbsim"
	"repro/internal/experiments"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
	"repro/internal/minidb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/repo"
	"repro/internal/workload"
)

// Re-exported types. Aliases keep the internal packages as the single
// source of truth while giving external importers stable names.
type (
	// Space is an ordered knob set defining the search space Θ.
	Space = knobs.Space
	// Knob describes one tunable configuration parameter.
	Knob = knobs.Knob
	// Hardware describes a database instance (cores, RAM, disk).
	Hardware = dbsim.Hardware
	// Simulator is the MySQL-like DBMS substrate every tuner measures
	// configurations against.
	Simulator = dbsim.Simulator
	// SimulatorOption configures a Simulator.
	SimulatorOption = dbsim.Option
	// Measurement is one replay's observed metrics.
	Measurement = dbsim.Measurement
	// Resource selects which utilization a session minimizes.
	Resource = dbsim.ResourceKind
	// Workload couples a query mix with its performance profile.
	Workload = workload.Workload
	// Characterizer embeds workloads as meta-feature vectors.
	Characterizer = workload.Characterizer
	// Observation is the (θ, res, tps, lat) four-tuple.
	Observation = bo.Observation
	// SLA holds the throughput/latency constraints.
	SLA = bo.SLA
	// Config parameterizes a tuning session, ResTune's or a baseline's.
	Config = core.Config
	// Tuner is any tuning method (ResTune or a baseline).
	Tuner = core.Tuner
	// Evaluator is the database copy + replayer a session measures through.
	Evaluator = core.Evaluator
	// Result is a finished tuning session.
	Result = core.Result
	// Iteration is one recorded tuning step.
	Iteration = core.Iteration
	// Repository stores historical tuning tasks for meta-learning.
	Repository = repo.Repository
	// TaskRecord is one stored tuning task.
	TaskRecord = repo.TaskRecord
	// LazyRepository is a repository opened index-first: task histories are
	// decoded on demand, so open cost is proportional to the index, not the
	// corpus.
	LazyRepository = repo.LazyRepository
	// BaseLearner is a fitted per-task surrogate used by the meta-learner.
	BaseLearner = meta.BaseLearner
	// Corpus manages base tasks at scale: nearest-neighbor shortlisting and
	// lazy surrogate fits (Config.Corpus).
	Corpus = meta.Corpus
	// CorpusTask is one shortlistable task: identity, meta-feature and a
	// deterministic deferred fit.
	CorpusTask = meta.CorpusTask
	// CorpusOptions tunes shortlist size and the exact-fallback threshold.
	CorpusOptions = meta.CorpusOptions
	// SharedCorpus is the fleet-wide copy-on-write fit cache: one immutable
	// task list whose surrogate fits are computed once (single-flight) and
	// shared read-only across every session holding a view from NewSession.
	SharedCorpus = meta.SharedCorpus
	// SessionSpec declares one fleet session: name, config, evaluator,
	// iteration budget.
	SessionSpec = core.SessionSpec
	// SessionResult is one fleet session's outcome, in spec order.
	SessionResult = core.SessionResult
	// Fleet runs many tuning sessions concurrently over a bounded worker
	// pool with deterministic per-session traces.
	Fleet = core.Fleet
	// FleetConfig sizes the fleet's worker pool and attaches its telemetry.
	FleetConfig = core.FleetConfig
	// AcquisitionConfig tunes acquisition-function optimization.
	AcquisitionConfig = bo.OptimizerConfig
	// ExperimentParams scales a paper-experiment run.
	ExperimentParams = experiments.Params
	// ExperimentReport is a paper-experiment's output.
	ExperimentReport = experiments.Report
	// DriftConfig enables drift detection and safe trust-region exploration
	// for online tuning (Config.Drift).
	DriftConfig = core.DriftConfig
	// SparseConfig switches the GP surrogate to subset-of-data sparse
	// inference once a session's history exceeds its threshold
	// (Config.Sparse); the zero value keeps exact inference.
	SparseConfig = gp.SparseConfig
	// Timeline is a piecewise load schedule over a simulated day.
	Timeline = workload.Timeline
	// TimelineEvaluator drives a simulator through a Timeline with
	// time-compressed playback (implements Evaluator).
	TimelineEvaluator = core.TimelineEvaluator
	// DayStats summarizes one simulated-day tuning session: SLA violations,
	// drift events and adaptation speed.
	DayStats = experiments.DayStats
)

// DefaultSparseConfig returns the default subset-of-data sparse-GP
// configuration (activation threshold 256 observations) for
// Config.Sparse. See DESIGN.md §14.
func DefaultSparseConfig() SparseConfig { return gp.DefaultSparseConfig() }

// Resource kinds.
const (
	// CPU minimizes database-wide CPU utilization (percent).
	CPU = dbsim.CPUPct
	// IOBandwidth minimizes disk bytes/second.
	IOBandwidth = dbsim.IOBps
	// IOOperations minimizes disk operations/second.
	IOOperations = dbsim.IOPS
	// Memory minimizes total DBMS memory.
	Memory = dbsim.MemoryBytes
)

// ---------------------------------------------------------------------------
// Knob catalogues.

// MySQLKnobs returns the full MySQL 5.7 knob catalogue.
func MySQLKnobs() *Space { return knobs.MySQL57Catalogue() }

// CPUKnobs returns the 14-knob CPU-tuning space.
func CPUKnobs() *Space { return knobs.CPUSpace() }

// RealEngineKnobs returns the subset of the catalogue the live minidb
// engine models — the space real-engine tuning runs should use.
func RealEngineKnobs() *Space { return knobs.RealEngineSpace() }

// MemoryKnobs returns the 6-knob memory-tuning space.
func MemoryKnobs() *Space { return knobs.MemorySpace() }

// IOKnobs returns the 20-knob IO-tuning space.
func IOKnobs() *Space { return knobs.IOSpace() }

// ---------------------------------------------------------------------------
// Hardware and simulator.

// Instance returns one of the paper's instance types A-F.
func Instance(name string) Hardware { return dbsim.Instance(name) }

// Instances returns all instance types keyed by name.
func Instances() map[string]Hardware { return dbsim.Instances() }

// NewSimulator builds the DBMS-under-tuning for a hardware/workload pair.
func NewSimulator(hw Hardware, profile dbsim.WorkloadProfile, seed int64, opts ...SimulatorOption) *Simulator {
	return dbsim.New(hw, profile, seed, opts...)
}

// WithHalfRAMBufferPool pins the buffer pool to half of RAM (the paper's
// CPU/IO-experiment setting).
func WithHalfRAMBufferPool() SimulatorOption { return dbsim.WithHalfRAMBufferPool() }

// NewEvaluator adapts a simulator into the Evaluator a tuning session
// drives, minimizing the given resource over the knob space.
func NewEvaluator(sim *Simulator, space *Space, res Resource) Evaluator {
	return core.NewSimEvaluator(sim, space, res)
}

// ---------------------------------------------------------------------------
// Workloads.

// Sysbench returns the SYSBENCH workload at a data size in GB.
func Sysbench(sizeGB int) Workload { return workload.Sysbench(sizeGB) }

// TPCC returns the TPC-C workload at a warehouse count.
func TPCC(warehouses int) Workload { return workload.TPCC(warehouses) }

// Twitter returns the Twitter workload.
func Twitter() Workload { return workload.Twitter() }

// TwitterVariant returns the case-study variants W1..W5.
func TwitterVariant(i int) Workload { return workload.TwitterVariant(i) }

// Hotel returns the Hotel Booking production workload.
func Hotel() Workload { return workload.Hotel() }

// Sales returns the Sales production workload.
func Sales() Workload { return workload.Sales() }

// Workloads returns the paper's five evaluation workloads.
func Workloads() []Workload { return workload.Five() }

// namedWorkloads is the one name → workload table of the command-line tools,
// in the order their help text lists it.
var namedWorkloads = []struct {
	name string
	make func() Workload
}{
	{"sysbench", func() Workload { return Sysbench(10) }},
	{"sysbench-100g", func() Workload { return Sysbench(100) }},
	{"tpcc", func() Workload { return TPCC(200) }},
	{"twitter", Twitter},
	{"hotel", Hotel},
	{"sales", Sales},
	{"twitter-w1", func() Workload { return TwitterVariant(1) }},
	{"twitter-w2", func() Workload { return TwitterVariant(2) }},
	{"twitter-w3", func() Workload { return TwitterVariant(3) }},
	{"twitter-w4", func() Workload { return TwitterVariant(4) }},
	{"twitter-w5", func() Workload { return TwitterVariant(5) }},
}

// WorkloadNames lists the names WorkloadByName accepts.
func WorkloadNames() []string {
	names := make([]string, len(namedWorkloads))
	for i, nw := range namedWorkloads {
		names[i] = nw.name
	}
	return names
}

// WorkloadByName returns the workload a command-line name stands for; case
// does not matter.
func WorkloadByName(name string) (Workload, error) {
	for _, nw := range namedWorkloads {
		if strings.EqualFold(name, nw.name) {
			return nw.make(), nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(WorkloadNames(), ", "))
}

// namedResources is the one name → resource table of the command-line
// tools; the first name of each entry is the one help text lists.
var namedResources = []struct {
	names []string
	res   Resource
}{
	{[]string{"cpu"}, CPU},
	{[]string{"io_bps", "bps"}, IOBandwidth},
	{[]string{"iops"}, IOOperations},
	{[]string{"memory", "mem"}, Memory},
}

// ResourceNames lists the names ResourceByName accepts, aliases left out.
func ResourceNames() []string {
	names := make([]string, len(namedResources))
	for i, nr := range namedResources {
		names[i] = nr.names[0]
	}
	return names
}

// ResourceByName returns the resource a command-line name stands for: one
// of ResourceNames, or the alias bps or mem; case does not matter.
func ResourceByName(name string) (Resource, error) {
	for _, nr := range namedResources {
		for _, n := range nr.names {
			if strings.EqualFold(name, n) {
				return nr.res, nil
			}
		}
	}
	return 0, fmt.Errorf("unknown resource %q (want one of %s)", name, strings.Join(ResourceNames(), ", "))
}

// NewCharacterizer trains the workload-characterization pipeline
// (reserved-word TF-IDF -> random forest -> meta-feature).
func NewCharacterizer(trainOn []Workload, seed int64) (*Characterizer, error) {
	return workload.NewCharacterizer(trainOn, seed)
}

// MetaFeatureDistance is the Euclidean distance between meta-features —
// the similarity measure behind the static weights.
func MetaFeatureDistance(a, b []float64) float64 { return workload.MetaFeatureDistance(a, b) }

// ---------------------------------------------------------------------------
// Timelines and drift-aware online tuning.

// TimelineProfile returns a named built-in timeline: "diurnal" (a 24h
// night/ramp/business/peak day), "spike" (a flash-crowd burst), "ramp" (a
// day-long linear climb) or "flat" (the stationary control).
func TimelineProfile(name string) (*Timeline, error) { return workload.TimelineProfile(name) }

// TimelineFromCSV parses a load schedule from CSV rows of
// "offset_seconds,rate_mult[,write_boost]".
func TimelineFromCSV(r io.Reader) (*Timeline, error) { return workload.TimelineFromCSV(r) }

// NewTimelineEvaluator drives a simulator through a timeline with
// time-compressed playback: measurement k evaluates under the load at
// simulated time k*Total/stepsPerDay (wrapping past a day). Pair it with
// Config.Drift for drift-aware online tuning.
func NewTimelineEvaluator(sim *Simulator, space *Space, res Resource, w Workload, tl *Timeline, stepsPerDay int) *TimelineEvaluator {
	return core.NewTimelineEvaluator(sim, space, res, w, tl, stepsPerDay)
}

// SimulatedDay runs one tuning session over a timeline (a TimelineProfile
// or a CSV-loaded one) compressed into p.Iters measurements — drift-aware
// under a non-nil drift configuration (&DriftConfig{} for the defaults), the
// stationary tuner under nil (restune-bench -timeline). name labels the
// timeline in the returned stats.
func SimulatedDay(name string, tl *Timeline, p ExperimentParams, drift *DriftConfig) (*DayStats, error) {
	return experiments.SimulatedDay(name, tl, p, drift)
}

// ---------------------------------------------------------------------------
// Replay.

// Replayer replays a captured workload window against a database copy at
// the recorded request rate.
type Replayer = replay.Replayer

// TemplateCount is a query template with its observed frequency.
type TemplateCount = replay.TemplateCount

// ExtractTemplates reduces a SQL stream to its distinct templates (scalars
// and sharded identifiers normalized), most frequent first.
func ExtractTemplates(stream []string) []TemplateCount { return replay.ExtractTemplates(stream) }

// NewReplayer captures a window of the workload and prepares a replayer.
func NewReplayer(sim *Simulator, w Workload, sampleQueries int, window time.Duration, seed int64) *Replayer {
	return replay.New(sim, w, sampleQueries, window, seed)
}

// ---------------------------------------------------------------------------
// Tuners.

// DefaultConfig returns the paper's ResTune settings.
func DefaultConfig(seed int64) Config { return core.DefaultConfig(seed) }

// New builds a ResTune tuner. With Config.Corpus nil it is the
// ResTune-w/o-ML ablation; with a corpus of base tasks it is full
// meta-boosted ResTune.
func New(cfg Config) Tuner { return core.New(cfg) }

// The baselines run the same session loop as New, configured by the same
// Config (seed, SLA tolerance, initialization budget, acquisition settings,
// recorder, stopping rule, drift handling); only how the next configuration
// is chosen differs. A baseline Tuner holds one policy instance, so it runs
// one session at a time: build one per concurrent session.

// Default returns the Default baseline (DBA configuration re-measured).
func Default(cfg Config) Tuner { return baselines.NewDefault(cfg) }

// ITuned returns the iTuned baseline (unconstrained GP + EI).
func ITuned(cfg Config) Tuner { return baselines.NewITuned(cfg) }

// OtterTuneWithConstraints returns the OtterTune-w-Con baseline over a
// historical task set.
func OtterTuneWithConstraints(cfg Config, tasks []TaskRecord) Tuner {
	return baselines.NewOtterTuneWCon(cfg, tasks)
}

// CDBTuneWithConstraints returns the CDBTune-w-Con baseline (DDPG with the
// paper's constrained reward).
func CDBTuneWithConstraints(cfg Config) Tuner { return baselines.NewCDBTuneWCon(cfg) }

// GridSearch returns an exhaustive grid-search tuner; its sessions measure
// every grid point whatever budget Run is given, ignoring the Config's
// stopping rules and trust region.
func GridSearch(cfg Config, pointsPerDim int) Tuner {
	return baselines.NewGridSearch(cfg, pointsPerDim)
}

// ---------------------------------------------------------------------------
// Data repository and meta-learning.

// NewRepository returns an empty data repository.
func NewRepository() *Repository { return &Repository{} }

// LoadRepository reads a repository from JSON.
func LoadRepository(path string) (*Repository, error) { return repo.Load(path) }

// OpenLazyRepository opens a repository reading only its index segment;
// task histories decode on demand (v1 files fall back to an eager decode
// behind the same interface). Close it when the session is done.
func OpenLazyRepository(path string) (*LazyRepository, error) { return repo.OpenLazy(path) }

// NewSharedCorpus builds the fleet-wide single-flight fit cache over a task
// list (from SyntheticCorpus or a repository's CorpusTasks). Hand each
// concurrent session its own view via SharedCorpus.NewSession so N sessions
// over similar workloads pay ~1 surrogate fit per base task instead of N.
func NewSharedCorpus(tasks []CorpusTask, rec Recorder) *SharedCorpus {
	return meta.NewSharedCorpus(tasks, rec)
}

// NewFleet returns the bounded-worker scheduler that multiplexes many
// sessions concurrently (cmd/restune-server is its CLI face). Sessions are
// stepped one iteration at a time and requeued, so a small worker pool
// overlaps many sessions' workload-replay waits; per-session traces stay
// bit-identical to solo runs.
func NewFleet(cfg FleetConfig) *Fleet { return core.NewFleet(cfg) }

// SyntheticCorpus generates n deterministic synthetic base tasks — the
// corpus behind restune-bench -corpus-size and BenchmarkMetaIteration.
func SyntheticCorpus(n, metaDim, dim, histLen int, seed int64) []CorpusTask {
	return meta.SyntheticCorpus(n, metaDim, dim, histLen, seed)
}

// TaskFromResult converts a finished session into a repository record.
func TaskFromResult(taskID, workloadName, hardwareName string, metaFeature []float64, space *Space, res *Result) TaskRecord {
	return repo.FromResult(taskID, workloadName, hardwareName, metaFeature, space, res)
}

// ---------------------------------------------------------------------------
// Real storage engine (minidb).

// EngineEvaluator measures configurations by real replays against minidb,
// the repository's compact storage engine (B+tree, buffer pool with LRU
// page cleaner, WAL, row locks, table cache). Unlike the simulator, its
// measurements are wall-clock throughput, sampled latency, getrusage CPU
// and physical IO counters.
type EngineEvaluator = minidb.Evaluator

// NewEngineEvaluator builds a real-engine evaluator: each Measure call
// opens a fresh engine under the candidate knobs, loads the dataset and
// replays the workload at its request rate.
func NewEngineEvaluator(baseDir string, space *Space, res Resource, w Workload, seed int64) *EngineEvaluator {
	return minidb.NewEvaluator(baseDir, space, res, w, seed)
}

// ---------------------------------------------------------------------------
// Observability.

// Recorder receives telemetry (spans, counters, gauges, histograms) from an
// instrumented component. It is always injected — through Config.Recorder,
// EngineEvaluator.Recorder or ExperimentParams.Recorder — never global, and
// never influences tuning decisions.
type Recorder = obs.Recorder

// TraceRecorder is a live Recorder streaming structured events as JSON
// Lines — the run artifact scripts/trace_summary.sh summarizes.
type TraceRecorder = obs.JSONL

// NopRecorder returns the recorder that records nothing (the default
// everywhere a Recorder is accepted).
func NopRecorder() Recorder { return obs.Nop }

// NewTraceRecorder returns a TraceRecorder writing JSONL events to w.
func NewTraceRecorder(w io.Writer) *TraceRecorder { return obs.NewJSONL(w) }

// NewTraceFile creates (truncating) a JSONL trace file at path. Close the
// returned recorder to flush the final metric snapshot.
func NewTraceFile(path string) (*TraceRecorder, error) { return obs.NewJSONLFile(path) }

// ServeDebug starts the opt-in debug HTTP endpoint (expvar at /debug/vars,
// a JSON metric snapshot at /debug/metrics, pprof under /debug/pprof/)
// backed by the recorder's metric registry. It returns the bound address
// and a shutdown func.
func ServeDebug(addr string, rec *TraceRecorder) (string, func() error, error) {
	return obs.ServeDebug(addr, rec.Registry)
}

// ---------------------------------------------------------------------------
// Paper experiments.

// QuickExperimentParams returns reduced budgets that keep the paper's
// experiment structure intact while running in minutes.
func QuickExperimentParams() ExperimentParams { return experiments.Quick() }

// FullExperimentParams returns the paper's protocol (200 iterations, 3
// runs, full repository).
func FullExperimentParams() ExperimentParams { return experiments.Full() }

// RunExperiment regenerates one of the paper's tables or figures by id
// ("fig1", "fig3"-"fig9", "table3"-"table9").
func RunExperiment(id string, p ExperimentParams) (*ExperimentReport, error) {
	return experiments.Run(id, p)
}

// ExperimentIDs lists the available experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }

// CorpusScale measures per-iteration meta-learning cost against synthetic
// corpus size for the shortlisted and all-learners paths (restune-bench
// -corpus-size). It is not part of ExperimentIDs: the corpus sizes the
// scaling argument needs would dominate an -all run.
func CorpusScale(sizes []int, seed int64, iters int) (*ExperimentReport, error) {
	return experiments.CorpusScale(sizes, seed, iters)
}

// HistoryScale measures the per-iteration surrogate model-update cost of
// exact versus subset-of-data sparse GP inference at the given observation
// history lengths, along with the recommendation each arm lands on
// (restune-bench -history-size). Like CorpusScale it is not part of
// ExperimentIDs: the exact arm at n=2000 is deliberately cubic.
func HistoryScale(sizes []int, seed int64, iters int) (*ExperimentReport, error) {
	return experiments.HistoryScale(sizes, seed, iters)
}

// ExperimentTitle returns an experiment's description.
func ExperimentTitle(id string) string { return experiments.Title(id) }
