package minidb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/dbsim"
	"repro/internal/knobs"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Evaluator implements core.Evaluator against a live minidb instance: every
// Measure call opens a fresh engine with the candidate knobs, loads the
// dataset, replays generated workload statements at the configured request
// rate from a worker pool, and reports *real* measurements — wall-clock
// throughput, sampled p99 latency, process CPU time via getrusage, and
// engine counters for IO and memory. This is the substrate swap that turns
// the tuning loop from simulation into an actual end-to-end system
// (examples/real-engine); it is far slower per iteration than
// internal/dbsim, which is why the paper-scale experiments stay on the
// simulator.
type Evaluator struct {
	// Knobs is the tuned subspace.
	Knobs *knobs.Space
	// Kind is the resource to minimize.
	Kind dbsim.ResourceKind
	// Workload supplies the statement generator and request rate.
	Workload workload.Workload
	// BaseDir hosts the per-measurement database directories.
	BaseDir string
	// Rows is the loaded dataset size per table.
	Rows int64
	// Duration is the replay window per measurement.
	Duration time.Duration
	// Workers is the client pool size (defaults to min(8, workload threads)).
	Workers int
	// TxnMode replays transaction-shaped statement groups (the workload's
	// StatementsPerTxn) committed atomically, instead of per-statement
	// auto-commit. Throughput then counts transactions.
	TxnMode bool
	// Seed drives statement generation.
	Seed int64
	// Recorder receives engine telemetry from every measurement's engine
	// instance (nil records nothing). Telemetry is write-only, so
	// deterministic measurements stay bit-identical with a live recorder.
	Recorder obs.Recorder
	// Deterministic replays the statement stream serially with no pacing,
	// no background engine goroutines (cleaner, WAL timer) and metrics
	// derived purely from engine counters and statement footprints instead
	// of wall clock and getrusage. A measurement becomes a pure function of
	// (knobs, seed), bit-identical across runs and GOMAXPROCS settings —
	// the substrate for golden-trace regression tests. Real wall-clock
	// behaviour is NOT measured in this mode.
	Deterministic bool

	// fs overrides the engine's filesystem (nil keeps the real one); the
	// error-path tests put a vfs.FaultFS here.
	fs vfs.FS

	runs int
}

// Space implements core.Evaluator.
func (e *Evaluator) Space() *knobs.Space { return e.Knobs }

// Resource implements core.Evaluator.
func (e *Evaluator) Resource() dbsim.ResourceKind { return e.Kind }

// DefaultNative implements core.Evaluator. The engine's defaults mirror
// the DBA defaults of the knob catalogue.
func (e *Evaluator) DefaultNative() []float64 { return e.Knobs.Defaults() }

// cpuTime returns the process's combined user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	toDur := func(tv syscall.Timeval) time.Duration {
		return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
	}
	return toDur(ru.Utime) + toDur(ru.Stime)
}

// Measure implements core.Evaluator with a real replay.
func (e *Evaluator) Measure(native []float64) dbsim.Measurement {
	e.runs++
	dir := filepath.Join(e.BaseDir, fmt.Sprintf("run-%d", e.runs))
	m, err := e.measure(dir, native)
	os.RemoveAll(dir)
	if err != nil {
		// A broken configuration (e.g. unopenable) measures as a stalled
		// database: zero throughput, enormous latency. The SLA check
		// rejects it, which is exactly how a failed replay behaves.
		return dbsim.Measurement{TPS: 1, LatencyP99Ms: 1e6, CPUUtilPct: 100}
	}
	return m
}

func (e *Evaluator) measure(dir string, native []float64) (dbsim.Measurement, error) {
	cfg := ConfigFromKnobs(dir, e.Knobs, native)
	cfg.Recorder = e.Recorder
	cfg.FS = e.fs
	cfg.CleanerInterval = 20 * time.Millisecond
	cfg.WAL.TimerInterval = 100 * time.Millisecond
	if e.Deterministic {
		cfg.CleanerInterval = 0
		cfg.WAL.TimerInterval = 0
	}
	db, err := Open(cfg)
	if err != nil {
		return dbsim.Measurement{}, err
	}
	m, err := e.replay(db, cfg)
	// A failed final checkpoint means the counters describe a database that
	// did not survive its own shutdown: report it, not the measurement.
	if cerr := db.Close(); err == nil && cerr != nil {
		return dbsim.Measurement{}, fmt.Errorf("minidb: closing after replay: %w", cerr)
	}
	return m, err
}

// replay loads the dataset into the open engine and replays the workload
// against it.
func (e *Evaluator) replay(db *DB, cfg Config) (dbsim.Measurement, error) {
	rows := e.Rows
	if rows <= 0 {
		rows = 2000
	}
	ex := NewExecutor(db, rows)
	r := rng.Derive(e.Seed+int64(e.runs), "minidb-eval")
	warmup := e.Workload.Generate(64, r)
	for _, stmt := range warmup {
		// Creates tables referenced by the workload and warms the plan
		// cache. A warmup failure (e.g. CREATE TABLE) would otherwise
		// resurface mid-replay as a confusing "no such table" — abort with
		// the original error instead.
		if _, err := ex.Exec(stmt); err != nil {
			return dbsim.Measurement{}, fmt.Errorf("minidb: warmup %q: %w", stmt, err)
		}
	}
	// Load in sorted order: map iteration order would otherwise leak into
	// page layout and engine counters, breaking deterministic replays.
	names := make([]string, 0, len(ex.created))
	for name := range ex.created {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := ex.Load(name, rows); err != nil {
			return dbsim.Measurement{}, err
		}
	}

	// Pre-generate the replay stream.
	duration := e.Duration
	if duration <= 0 {
		duration = 250 * time.Millisecond
	}
	rate := e.Workload.Profile.RequestRate
	workers := e.Workers
	if workers <= 0 {
		workers = e.Workload.Profile.Threads
		if workers > 8 {
			workers = 8
		}
	}
	budget := int(rate * duration.Seconds() * 2)
	if rate <= 0 || budget > 100000 {
		budget = 100000
	}
	if e.Deterministic && budget > 2000 {
		budget = 2000 // serial replay: keep deterministic measurements cheap
	}
	var stream [][]string
	if e.TxnMode {
		stream = e.Workload.GenerateTransactions(budget, r)
	} else {
		for _, stmt := range e.Workload.Generate(budget, r) {
			stream = append(stream, []string{stmt})
		}
	}

	if e.Deterministic {
		return e.measureDeterministic(db, ex, cfg, stream)
	}

	// Token bucket paces the offered load; closed channel = window over.
	tokens := make(chan []string, workers*4)
	stop := make(chan struct{})
	go func() {
		defer close(tokens)
		if rate <= 0 {
			for _, s := range stream {
				select {
				case tokens <- s:
				case <-stop:
					return
				}
			}
			return
		}
		// Accumulator pacer: tokens earned are computed from measured
		// elapsed time, with the fractional remainder carried forward, so
		// the delivered count tracks rate×duration regardless of how the
		// tick quantizes the interval.
		interval := time.Duration(float64(time.Second) / rate)
		t := time.NewTicker(maxDur(interval, 200*time.Microsecond))
		defer t.Stop()
		tb := tokenBucket{rate: rate}
		last := time.Now()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				now := time.Now()
				n := tb.take(now.Sub(last))
				last = now
				for k := 0; k < n && i < len(stream); k++ {
					select {
					case tokens <- stream[i]:
						i++
					case <-stop:
						return
					}
				}
				if i >= len(stream) {
					return
				}
			}
		}
	}()

	statsBefore := db.Stats()
	cpuBefore := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	latencies := make([][]time.Duration, workers)
	executed := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker clones the warmed executor: private copy of the
			// table registry (the map is not safe for sharing), shared
			// plan cache already populated by warmup.
			exw := ex.Clone()
			for group := range tokens {
				t0 := time.Now()
				if e.TxnMode {
					if _, err := exw.ExecTxn(group); errors.Is(err, ErrTxAborted) {
						continue // aborted transactions are not counted
					}
				} else {
					exw.Exec(group[0])
				}
				latencies[w] = append(latencies[w], time.Since(t0))
				executed[w]++
			}
		}(w)
	}
	timer := time.NewTimer(duration)
	<-timer.C
	close(stop)
	wg.Wait()
	wall := time.Since(start)
	cpuDelta := cpuTime() - cpuBefore
	statsAfter := db.Stats()

	total := 0
	var all []time.Duration
	for w := range latencies {
		total += executed[w]
		all = append(all, latencies[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p99 := time.Duration(0)
	if len(all) > 0 {
		p99 = all[int(float64(len(all)-1)*0.99)]
	}

	cpuPct := cpuDelta.Seconds() / wall.Seconds() / float64(runtime.NumCPU()) * 100
	if cpuPct > 100 {
		cpuPct = 100
	}
	return measurement(db, cfg, statsBefore, statsAfter, wall.Seconds(),
		float64(total)/wall.Seconds(), float64(p99)/float64(time.Millisecond), cpuPct), nil
}

// measurement assembles a replay's measurement: the throughput, p99 latency
// (ms) and CPU share the replay mode computed, the IO rates and internal
// metrics of the engine counters that moved from before to after over secs
// seconds, and the memory the configuration reserves.
func measurement(db *DB, cfg Config, before, after Stats, secs, tps, p99Ms, cpuPct float64) dbsim.Measurement {
	reads := after.PhysicalReads - before.PhysicalReads
	writes := after.PhysWrites - before.PhysWrites
	syncs := after.WALSyncs - before.WALSyncs
	walWrites := after.WALWrites - before.WALWrites
	m := dbsim.Measurement{
		TPS:          tps,
		LatencyP99Ms: p99Ms,
		CPUUtilPct:   cpuPct,
		IOPS:         float64(reads+writes+syncs+walWrites) / secs,
		IOBps:        float64(reads+writes) * PageSize / secs,
		MemoryBytes:  float64(cfg.BufferPoolBytes) + float64(cfg.WAL.BufferBytes) + 8e6,
		HitRatio:     db.pool.HitRatio(),
	}
	m.Internal = []float64{
		m.HitRatio,
		float64(after.LockWaits - before.LockWaits),
		float64(after.SpinRounds - before.SpinRounds),
		float64(after.TableOpens - before.TableOpens),
		m.IOPS, m.IOBps, tps, p99Ms, cpuPct,
	}
	return m
}

// measureDeterministic executes the pre-generated stream serially and
// synthesizes the measurement from engine counters and per-statement row
// footprints under a fixed cost model (microseconds): a statement costs
// 20 + 5·rowsRead + 12·rowsWritten of CPU, a physical page read or write
// costs 80, a WAL fsync 150 and a WAL block write 2 of IO. The modelled
// wall clock is their sum, so throughput, latency, CPU share and IO rates
// all respond to the knobs (pool size moves physical reads, commit policy
// moves syncs) while remaining exact functions of the replayed counters.
func (e *Evaluator) measureDeterministic(db *DB, ex *Executor, cfg Config, stream [][]string) (dbsim.Measurement, error) {
	statsBefore := db.Stats()
	executed := 0
	costs := make([]float64, 0, len(stream))
	for _, group := range stream {
		var rows RowsTouched
		if e.TxnMode {
			rt, err := ex.ExecTxn(group)
			if errors.Is(err, ErrTxAborted) {
				continue
			}
			rows = rt
		} else {
			rt, _ := ex.Exec(group[0])
			rows = rt
		}
		costs = append(costs, 20+5*float64(rows.Read)+12*float64(rows.Written))
		executed++
	}
	statsAfter := db.Stats()

	cpuUS := 0.0
	for _, c := range costs {
		cpuUS += c
	}
	reads := statsAfter.PhysicalReads - statsBefore.PhysicalReads
	writes := statsAfter.PhysWrites - statsBefore.PhysWrites
	syncs := statsAfter.WALSyncs - statsBefore.WALSyncs
	walWrites := statsAfter.WALWrites - statsBefore.WALWrites
	ioUS := 80*float64(reads+writes) + 150*float64(syncs) + 2*float64(walWrites)
	wallUS := cpuUS + ioUS
	if wallUS <= 0 {
		wallUS = 1
	}
	wallSec := wallUS / 1e6

	sort.Float64s(costs)
	p99 := 0.0
	if len(costs) > 0 {
		// Amortize the IO share over statements so the modelled latency and
		// throughput describe the same modelled clock.
		perStmtIO := ioUS / float64(len(costs))
		p99 = (costs[int(float64(len(costs)-1)*0.99)] + perStmtIO) / 1e3
	}

	cpuPct := 100 * cpuUS / wallUS
	if cpuPct > 100 {
		cpuPct = 100
	}
	return measurement(db, cfg, statsBefore, statsAfter, wallSec, float64(executed)/wallSec, p99, cpuPct), nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// tokenBucket converts elapsed wall-clock into a whole number of request
// tokens at a configured rate, banking the fractional remainder between
// calls. The previous pacer rounded tokens-per-tick down to an integer,
// silently under-delivering the offered load whenever the per-request
// interval did not divide the tick evenly (worst at high request rates).
type tokenBucket struct {
	rate float64 // tokens per second
	acc  float64 // fractional carry
}

// take returns the tokens earned over elapsed, carrying the remainder.
func (tb *tokenBucket) take(elapsed time.Duration) int {
	if elapsed <= 0 {
		return 0
	}
	tb.acc += tb.rate * elapsed.Seconds()
	n := int(tb.acc)
	tb.acc -= float64(n)
	return n
}

// NewEvaluator builds a real-engine evaluator with sensible demo settings.
func NewEvaluator(base string, space *knobs.Space, kind dbsim.ResourceKind, w workload.Workload, seed int64) *Evaluator {
	return &Evaluator{
		Knobs:    space,
		Kind:     kind,
		Workload: w,
		BaseDir:  base,
		Rows:     2000,
		Duration: 250 * time.Millisecond,
		Seed:     seed,
	}
}
