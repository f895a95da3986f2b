package dbsim

import (
	"math"
	"math/rand"

	"repro/internal/knobs"
	"repro/internal/rng"
)

// ResourceKind selects which resource utilization a tuning session minimizes.
type ResourceKind int

const (
	// CPUPct is database-wide CPU utilization in percent (Section 7.1).
	CPUPct ResourceKind = iota
	// IOBps is disk bandwidth in bytes/second (Section 7.5.1).
	IOBps
	// IOPS is disk operations/second (Section 7.5.1).
	IOPS
	// MemoryBytes is total DBMS memory (Section 7.5.2).
	MemoryBytes
)

// String returns the resource's display name.
func (r ResourceKind) String() string {
	switch r {
	case CPUPct:
		return "cpu"
	case IOBps:
		return "io_bps"
	case IOPS:
		return "iops"
	case MemoryBytes:
		return "memory"
	}
	return "?"
}

// Measurement is one replay's observed metrics — what the paper's Target
// Workload Replay component appends to the observation history.
type Measurement struct {
	// TPS is throughput in transactions/second.
	TPS float64
	// LatencyP99Ms is 99th-percentile latency in milliseconds.
	LatencyP99Ms float64
	// CPUUtilPct is database-wide CPU utilization in percent.
	CPUUtilPct float64
	// IOBps is disk bandwidth used, bytes/second.
	IOBps float64
	// IOPS is disk operations/second.
	IOPS float64
	// MemoryBytes is the DBMS resident memory.
	MemoryBytes float64
	// HitRatio is the buffer pool hit ratio.
	HitRatio float64
	// Internal is the internal-metric vector (absolute scales, hardware
	// dependent) consumed by OtterTune's workload mapping and CDBTune's
	// state.
	Internal []float64
}

// Resource extracts the chosen resource utilization.
func (m Measurement) Resource(kind ResourceKind) float64 {
	switch kind {
	case CPUPct:
		return m.CPUUtilPct
	case IOBps:
		return m.IOBps
	case IOPS:
		return m.IOPS
	case MemoryBytes:
		return m.MemoryBytes
	}
	panic("dbsim: unknown resource kind")
}

// Simulator evaluates configurations for one (hardware, workload) pair.
// It is the black box f(θ) -> (res, tps, lat) every tuner optimizes.
type Simulator struct {
	HW Hardware
	WL WorkloadProfile
	// FixedBufferPoolBytes, when nonzero, pins the buffer pool size (the
	// paper fixes it to half of RAM for CPU and IO experiments).
	FixedBufferPoolBytes int64
	// NoiseStd is the relative measurement noise (default 1%).
	NoiseStd float64

	catalogue *knobs.Space
	noise     *rand.Rand
}

// Option configures a Simulator.
type Option func(*Simulator)

// WithFixedBufferPool pins the buffer pool to the given size.
func WithFixedBufferPool(bytes int64) Option {
	return func(s *Simulator) { s.FixedBufferPoolBytes = bytes }
}

// WithHalfRAMBufferPool pins the buffer pool to half of RAM, the paper's
// setting for CPU and IO experiments.
func WithHalfRAMBufferPool() Option {
	return func(s *Simulator) { s.FixedBufferPoolBytes = s.HW.RAMBytes / 2 }
}

// New returns a simulator for the hardware/workload pair. seed drives the
// measurement-noise stream.
func New(hw Hardware, wl WorkloadProfile, seed int64, opts ...Option) *Simulator {
	s := &Simulator{
		HW:        hw,
		WL:        wl,
		NoiseStd:  0.01,
		catalogue: knobs.MySQL57Catalogue(),
		noise:     rng.Derive(seed, "dbsim:"+hw.Name+":"+wl.Name),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// resolve merges native values for a knob subspace over catalogue defaults,
// returning a full-catalogue native configuration.
func (s *Simulator) resolve(space *knobs.Space, native []float64) []float64 {
	full := s.catalogue.Defaults()
	if space == nil {
		return full
	}
	for i, k := range space.Knobs() {
		idx := s.catalogue.Index(k.Name)
		if idx < 0 {
			panic("dbsim: knob not in catalogue: " + k.Name)
		}
		full[idx] = native[i]
	}
	return full
}

// Eval measures the configuration with seeded measurement noise applied.
// space selects which knobs native refers to; all other knobs take their
// catalogue defaults.
func (s *Simulator) Eval(space *knobs.Space, native []float64) Measurement {
	m := s.EvalNoiseless(space, native)
	jitter := func(v float64) float64 {
		return math.Max(0, v*(1+s.NoiseStd*s.noise.NormFloat64()))
	}
	m.TPS = jitter(m.TPS)
	m.LatencyP99Ms = jitter(m.LatencyP99Ms)
	m.CPUUtilPct = math.Min(100, jitter(m.CPUUtilPct))
	m.IOBps = jitter(m.IOBps)
	m.IOPS = jitter(m.IOPS)
	m.MemoryBytes = jitter(m.MemoryBytes)
	return m
}

// EvalAtLoad measures the configuration under a scaled workload profile —
// one instant of a load timeline (see WorkloadProfile.AtLoad). The noise
// stream advances exactly as in Eval, so a timeline session consumes the
// same seeded stream as a stationary one and stays bit-reproducible.
func (s *Simulator) EvalAtLoad(space *knobs.Space, native []float64, rateMult, writeBoost float64) Measurement {
	saved := s.WL
	s.WL = saved.AtLoad(rateMult, writeBoost)
	m := s.Eval(space, native)
	s.WL = saved
	return m
}

// EvalDefault measures the DBA default configuration (used to establish the
// SLA thresholds λ_tps, λ_lat).
func (s *Simulator) EvalDefault() Measurement {
	return s.EvalNoiseless(nil, nil)
}

// EvalNoiseless computes the deterministic performance model.
func (s *Simulator) EvalNoiseless(space *knobs.Space, native []float64) Measurement {
	full := s.resolve(space, native)
	get := func(name string) float64 {
		idx := s.catalogue.Index(name)
		if idx < 0 {
			panic("dbsim: unknown knob " + name)
		}
		return full[idx]
	}
	hw, wl := s.HW, s.WL
	cores := float64(hw.Cores)

	// ---- Buffer pool and hit ratio -------------------------------------
	bp := get("innodb_buffer_pool_size")
	if s.FixedBufferPoolBytes > 0 {
		bp = float64(s.FixedBufferPoolBytes)
	}
	bp = math.Min(bp, 0.85*float64(hw.RAMBytes))
	bp = math.Max(bp, 128<<20)
	r := math.Min(1, bp/float64(wl.DataBytes))
	// Skewed-access power law; calibrated against the paper's measured hit
	// ratios (TPC-C 16G/117G -> ~0.93, SYSBENCH 16G/30G -> ~0.975).
	hit := math.Pow(r, wl.HitExponent)
	// innodb_old_blocks_pct away from its tuned default mildly hurts
	// young/old list balance.
	obp := get("innodb_old_blocks_pct")
	hit *= 1 - 0.02*math.Abs(obp-37)/58
	hit = math.Min(1, math.Max(0, hit))
	miss := 1 - hit

	// ---- Concurrency and locking ---------------------------------------
	threads := float64(wl.Threads)
	tc := get("innodb_thread_concurrency")
	conc := threads
	if tc > 0 {
		conc = math.Min(threads, tc)
	}
	over := math.Max(0, conc/cores-1)
	// Contention multiplier: context switching and lock convoys grow with
	// runnable threads beyond cores, saturating as the OS scheduler copes.
	// Calibrated so Twitter (512 threads on 48 cores) wastes roughly half
	// its CPU at the unlimited default, matching the case-study reduction
	// when innodb_thread_concurrency is capped (paper Table 6 / Fig. 7).
	mCont := 1 + 0.9*(1-math.Exp(-over/2))
	contProb := math.Min(0.6, conc/(4*cores))
	nLock := 2 + 8*wl.WriteRatio()

	// Spin knobs: busy polling converts lock waits into CPU.
	swd := get("innodb_spin_wait_delay")
	ssl := get("innodb_sync_spin_loops")
	// A spinning thread cannot burn more CPU than the lock hold time it is
	// waiting out, so the per-event cost saturates smoothly toward the
	// typical hold time (~2.5ms).
	rawSpin := 0.031 * math.Sqrt(ssl) * math.Sqrt(1+swd)
	spinCPUms := rawSpin / (1 + rawSpin/2.5)
	spinEff := 1 - math.Exp(-ssl*(1+swd)/200)
	// When spinning is disabled the thread sleeps and pays the futex
	// sleep/wake penalty (~0.25ms worst case per contended lock).
	lockWaitMs := contProb * nLock * (0.25*(1-0.85*spinEff) + 0.02)
	spinCPUPerTxn := contProb * nLock * spinCPUms

	// ---- Per-transaction CPU -------------------------------------------
	cpuBase := wl.CPUMsPerTxn
	if get("innodb_adaptive_hash_index") == 1 {
		// AHI speeds point lookups but costs maintenance under writes.
		cpuBase *= 1 - 0.10*wl.ReadRatio + 0.06*wl.WriteRatio()
	}
	// Very low concurrency tickets force frequent queue re-entry.
	if t := get("innodb_concurrency_tickets"); t < 500 && tc > 0 {
		cpuBase *= 1 + 0.05*(500-t)/500
	}
	// Larger sort/join buffers modestly reduce CPU for spill-prone queries.
	bufBenefit := 0.0
	for _, n := range []string{"sort_buffer_size", "join_buffer_size"} {
		def := defaultOf(s.catalogue, n)
		bufBenefit += 0.012 * math.Max(-1, math.Log2(get(n)/def)/8)
	}
	cpuBase *= 1 - math.Min(0.06, bufBenefit)

	toc := get("table_open_cache")
	pReopen := math.Max(0, 1-toc/(1.2*float64(wl.TablesTouched)))
	reopenCPUms := pReopen * 0.8

	tcs := get("thread_cache_size")
	pThreadMiss := math.Max(0, 1-tcs/threads)
	threadCPUms := 0.05 * pThreadMiss

	missCPUms := miss * wl.PagesPerTxn * 0.05

	perTxnCPUms := cpuBase*mCont + spinCPUPerTxn + reopenCPUms + threadCPUms + missCPUms

	// ---- Background CPU --------------------------------------------------
	lsd := get("innodb_lru_scan_depth")
	bpi := get("innodb_buffer_pool_instances")
	cleanerCores := lsd * bpi * 2.3e-5
	purgeCores := get("innodb_purge_threads") * 0.015
	ioThreadCores := (get("innodb_read_io_threads") + get("innodb_write_io_threads")) * 0.006
	bgCores := 0.15 + cleanerCores + purgeCores + ioThreadCores

	// ---- Dirty-page pressure ---------------------------------------------
	demand := wl.RequestRate
	if demand <= 0 {
		demand = cores * 1000 / perTxnCPUms // open loop: CPU-bound guess
	}
	// Dirty pages generated per (average) transaction: a write transaction
	// dirties a small number of pages regardless of how many it reads.
	writePagesPerTxn := wl.WriteRatio() * 1.5
	ioc := get("innodb_io_capacity")
	cleanCap := math.Min(lsd*bpi, ioc*4)
	pressure := demand * writePagesPerTxn / math.Max(cleanCap, 1)
	stall := math.Max(0, pressure-1)
	stallLatMs := 3 * stall
	stallCapMult := 1 / (1 + 0.5*stall)

	// ---- Commit / redo latency -------------------------------------------
	var commitMs float64
	switch get("innodb_flush_log_at_trx_commit") {
	case 1:
		commitMs = 0.30
	case 2:
		commitMs = 0.05
	default:
		commitMs = 0.02
	}
	if sb := get("sync_binlog"); sb >= 1 {
		commitMs += 0.20 / sb
	}
	commitMs *= wl.WriteRatio() * 2 // read-only txns skip the redo path

	// ---- IO model ----------------------------------------------------------
	// Two-pass fixed point: IO volumes depend on TPS, and capacity depends
	// on disk saturation.
	lfs := get("innodb_log_file_size")
	ckptMult := 1 + math.Max(0, float64(256<<20)/lfs-1)*0.3
	fnMult := map[float64]float64{0: 1.0, 1: 1.35, 2: 1.15}[get("innodb_flush_neighbors")]
	if fnMult == 0 {
		fnMult = 1
	}
	dwMult := 1.0
	if get("innodb_doublewrite") == 1 {
		dwMult = 2
	}
	mdp := get("innodb_max_dirty_pages_pct")
	dirtyMult := math.Pow(75/math.Max(mdp, 1), 0.25)
	cbMult := 1 - 0.2*get("innodb_change_buffer_max_size")/50
	raMult := 1.0
	if get("innodb_random_read_ahead") == 1 {
		raMult += 0.25
	}
	raMult += (64 - get("innodb_read_ahead_threshold")) / 64 * 0.20
	falMult := math.Pow(30/math.Max(get("innodb_flushing_avg_loops"), 1), 0.1)
	bgFlushBase := ioc * 0.08
	if get("innodb_adaptive_flushing") == 0 {
		bgFlushBase = ioc * 0.16 // without adaptation, flushing tracks io_capacity aggressively
	}
	bgFlushIOPS := bgFlushBase * falMult

	const pageBytes = 16 << 10
	// readLocality: a transaction's logical page accesses cluster on a few
	// physical pages (B-tree internals and hot leaves are shared within the
	// transaction), so physical reads are a fraction of logical misses.
	const readLocality = 0.3
	ioPerTxn := func(tps float64) (iops, bps float64) {
		readIOPS := tps * miss * wl.PagesPerTxn * readLocality * raMult
		logIOPS := 0.0
		if get("innodb_flush_log_at_trx_commit") == 1 {
			logIOPS += tps * wl.WriteRatio()
		} else {
			logIOPS += tps * wl.WriteRatio() * 0.1
		}
		if sb := get("sync_binlog"); sb >= 1 {
			logIOPS += tps * wl.WriteRatio() / sb
		}
		pageWriteIOPS := tps * writePagesPerTxn * fnMult * dwMult * dirtyMult * cbMult * ckptMult
		iops = readIOPS + logIOPS + pageWriteIOPS + bgFlushIOPS
		bps = (readIOPS+pageWriteIOPS+bgFlushIOPS)*pageBytes + tps*wl.WriteBytesPerTxn*wl.WriteRatio()
		return iops, bps
	}

	// ---- Capacity and throughput -----------------------------------------
	// servCap is the server-side (CPU/disk) capacity; concCap additionally
	// limits throughput by the admitted concurrency (thread slots). They
	// are kept separate because queueing delay builds against *server*
	// saturation — a client pool saturating its own thread slots does not
	// grow an unbounded queue (the pool is closed).
	// Cloud block storage: ~0.6ms per physical read before queueing — this
	// is what makes the buffer pool expensive to shrink (the memory
	// experiments' real constraint).
	ioReadLatMs := 0.6
	physReadsPerTxn := miss * wl.PagesPerTxn * readLocality
	tps := demand
	var iops, bps, servCap, capacity, svcMs float64
	for pass := 0; pass < 3; pass++ {
		iops, bps = ioPerTxn(tps)
		diskRho := math.Max(iops/hw.MaxIOPS, bps/hw.MaxBPS)
		ioLat := ioReadLatMs / (1.05 - math.Min(diskRho, 1))
		svcMs = cpuBase*mCont + lockWaitMs + physReadsPerTxn*ioLat + commitMs + stallLatMs

		cpuCap := math.Max(cores-bgCores, 0.5) * 1000 / perTxnCPUms
		concCap := conc * 1000 / math.Max(svcMs, 0.01)
		iopsPerTxn, bpsPerTxn := 0.0, 0.0
		if tps > 0 {
			iopsPerTxn = (iops - bgFlushIOPS) / tps
			bpsPerTxn = (bps - bgFlushIOPS*pageBytes) / tps
		}
		diskCap := math.Inf(1)
		if iopsPerTxn > 0 {
			diskCap = (hw.MaxIOPS - bgFlushIOPS) / iopsPerTxn
		}
		if bpsPerTxn > 0 {
			diskCap = math.Min(diskCap, (hw.MaxBPS-bgFlushIOPS*pageBytes)/bpsPerTxn)
		}
		servCap = math.Min(cpuCap, diskCap) * stallCapMult
		capacity = math.Min(servCap, concCap)
		newTPS := capacity
		if wl.RequestRate > 0 {
			newTPS = math.Min(wl.RequestRate, capacity)
		}
		tps = math.Max(1, newTPS)
	}

	// ---- Memory ------------------------------------------------------------
	connBuf := (get("sort_buffer_size") + get("join_buffer_size") + get("read_rnd_buffer_size")) * 0.6
	tmpMem := threads * wl.TmpTableRatio * get("tmp_table_size") * 0.5
	memBytes := bp + threads*connBuf + tmpMem + get("innodb_log_buffer_size") +
		600e6 + threads*6e6

	// Overcommit beyond RAM triggers swapping: latency explodes and
	// capacity collapses — the guardrail that keeps memory tuning honest.
	swapping := memBytes > 0.95*float64(hw.RAMBytes)
	if swapping {
		capacity *= 0.3
		if wl.RequestRate > 0 {
			tps = math.Min(wl.RequestRate, capacity)
		} else {
			tps = capacity
		}
		tps = math.Max(1, tps)
	}

	// ---- Latency -------------------------------------------------------------
	// Open-loop queueing growth against server saturation, bounded by
	// Little's law for the closed client pool: with `threads` clients in
	// flight, the mean wait cannot exceed threads/TPS.
	rho := math.Min(tps/math.Max(servCap, 1), 1)
	queueMult := 1 + 1.2*math.Pow(rho, 4)/(1.02-rho)
	wait := math.Min(svcMs*queueMult, svcMs+threads*1000/math.Max(tps, 1))
	p99 := wait * 2.0
	if swapping {
		p99 *= 10
	}

	// ---- CPU utilization --------------------------------------------------
	usedCores := tps*perTxnCPUms/1000 + bgCores
	cpuPct := math.Min(100, usedCores/cores*100)

	iops, bps = ioPerTxn(tps)

	m := Measurement{
		TPS:          tps,
		LatencyP99Ms: p99,
		CPUUtilPct:   cpuPct,
		IOBps:        bps,
		IOPS:         iops,
		MemoryBytes:  memBytes,
		HitRatio:     hit,
	}
	m.Internal = []float64{
		hit,
		pressure,
		tps * contProb * nLock, // lock waits / s
		tps * spinCPUPerTxn,    // spin rounds proxy
		conc * rho,             // threads running
		cpuPct,
		tps * miss * wl.PagesPerTxn, // read IOPS
		iops,
		bps / 1e6,
		memBytes / 1e9,
		tps * wl.TmpTableRatio, // tmp tables / s
		tps * pReopen,          // table reopens / s
		tps,
		p99,
	}
	return m
}

// DefaultNative returns the DBA default configuration for a knob subspace on
// the given hardware. It matches the paper's operational defaults: the
// buffer pool, when tunable, defaults to half of RAM ("we set the buffer
// pool size as half of the total memory for all instances").
func DefaultNative(space *knobs.Space, hw Hardware) []float64 {
	d := space.Defaults()
	if i := space.Index("innodb_buffer_pool_size"); i >= 0 {
		d[i] = float64(hw.RAMBytes / 2)
	}
	return d
}

func defaultOf(space *knobs.Space, name string) float64 {
	k, ok := space.Knob(name)
	if !ok {
		panic("dbsim: unknown knob " + name)
	}
	return k.Default
}

// InternalMetricNames labels the Internal vector entries.
func InternalMetricNames() []string {
	return []string{
		"buffer_hit_ratio", "dirty_pressure", "lock_waits_per_sec",
		"spin_rounds_per_sec", "threads_running", "cpu_util_pct",
		"read_iops", "total_iops", "io_mbps", "memory_gb",
		"tmp_tables_per_sec", "table_reopens_per_sec", "tps", "latency_p99_ms",
	}
}
