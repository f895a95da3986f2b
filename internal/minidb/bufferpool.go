package minidb

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// BufferPool caches pages in memory, split into N independent instances the
// way innodb_buffer_pool_instances splits InnoDB's pool: each page id hashes
// to exactly one instance, and each instance has its own mutex, its own
// InnoDB-style LRU (a young/hot sublist and an old/probation sublist: newly
// read pages enter at the old-sublist head and are promoted to young on
// re-access, so one-off scans cannot evict the hot set), and its own share
// of the page-cleaner budget. Concurrent workers touching different pages
// therefore contend on different mutexes; a single shared background
// cleaner round-robins the instances.
type BufferPool struct {
	pager     *pager
	instances []*poolInstance

	lruScanDepth int
	ioCapacity   int

	cleanerStop chan struct{}
	cleanerDone chan struct{}
}

// poolInstance is one independently latched slice of the pool.
type poolInstance struct {
	mu    sync.Mutex
	pager *pager
	// frames grows with the pages actually resident; capacity (the knob)
	// only decides when admitting one more page must evict.
	frames   map[PageID]*page
	capacity int
	// dirty indexes the frames whose dirty flag is set, so a checkpoint
	// costs O(dirty) instead of a walk over every resident page.
	dirty map[PageID]*page
	// ioErr is the first flush failure seen by a path with no caller to
	// report to (the background cleaner). It is sticky: every later fetch
	// or checkpoint on this instance surfaces it instead of letting a
	// dropped write masquerade as a clean pool.
	ioErr error
	// LRU list: head = most recently used young page; oldHead marks the
	// boundary where the old sublist begins.
	head, tail *page
	oldHead    *page
	oldPct     int // innodb_old_blocks_pct

	hits, misses, flushes, evictions atomic.Uint64

	// Per-shard telemetry counters; nil unless a live recorder is attached,
	// so the Nop configuration costs one nil check per event.
	obsHits, obsMisses, obsEvictions obs.Counter
}

// BufferPoolConfig sizes and tunes the pool.
type BufferPoolConfig struct {
	// Frames is the total pool capacity in pages (innodb_buffer_pool_size /
	// PageSize), split evenly across instances.
	Frames int
	// Instances is the number of independent pool instances
	// (innodb_buffer_pool_instances); values < 1 mean one instance.
	Instances int
	// OldBlocksPct is the old-sublist share (innodb_old_blocks_pct).
	OldBlocksPct int
	// LRUScanDepth is the cleaner's per-pass scan depth per instance
	// (innodb_lru_scan_depth).
	LRUScanDepth int
	// IOCapacity caps cleaner writes per second across the whole pool
	// (innodb_io_capacity).
	IOCapacity int
	// CleanerInterval is the cleaner wake-up period (zero disables the
	// background cleaner; flushing then happens only at eviction and
	// checkpoint).
	CleanerInterval time.Duration
	// Recorder receives per-shard hit/miss/eviction counters (nil records
	// nothing). Telemetry only — replacement decisions never depend on it.
	Recorder obs.Recorder
}

func newBufferPool(pg *pager, cfg BufferPoolConfig) *BufferPool {
	if cfg.Frames < 8 {
		cfg.Frames = 8
	}
	// A desk-scale engine: cap the pool at 1M frames (4GB) no matter what
	// the knob asks for, like a server refusing to overcommit.
	if cfg.Frames > 1<<20 {
		cfg.Frames = 1 << 20
	}
	if cfg.Instances < 1 {
		cfg.Instances = 1
	}
	if cfg.Instances > 64 {
		cfg.Instances = 64
	}
	// Every instance needs a workable minimum; shrink the instance count
	// rather than inflate a tiny pool (InnoDB similarly forces one instance
	// below 1GB).
	for cfg.Instances > 1 && cfg.Frames/cfg.Instances < 8 {
		cfg.Instances--
	}
	if cfg.OldBlocksPct <= 0 || cfg.OldBlocksPct >= 100 {
		cfg.OldBlocksPct = 37
	}
	if cfg.LRUScanDepth <= 0 {
		cfg.LRUScanDepth = 1024
	}
	if cfg.IOCapacity <= 0 {
		cfg.IOCapacity = 2000
	}
	bp := &BufferPool{
		pager:        pg,
		instances:    make([]*poolInstance, cfg.Instances),
		lruScanDepth: cfg.LRUScanDepth,
		ioCapacity:   cfg.IOCapacity,
	}
	per := cfg.Frames / cfg.Instances
	rec := obs.OrNop(cfg.Recorder)
	for i := range bp.instances {
		inst := &poolInstance{
			pager:    pg,
			frames:   make(map[PageID]*page),
			dirty:    make(map[PageID]*page),
			capacity: per,
			oldPct:   cfg.OldBlocksPct,
		}
		if rec.Enabled() {
			prefix := fmt.Sprintf("minidb.pool.shard%d.", i)
			inst.obsHits = rec.Counter(prefix + "hits")
			inst.obsMisses = rec.Counter(prefix + "misses")
			inst.obsEvictions = rec.Counter(prefix + "evictions")
		}
		bp.instances[i] = inst
	}
	if cfg.CleanerInterval > 0 {
		bp.cleanerStop = make(chan struct{})
		bp.cleanerDone = make(chan struct{})
		go bp.cleanerLoop(cfg.CleanerInterval)
	}
	return bp
}

// instance maps a page id onto its owning pool instance. A multiplicative
// hash keeps sequentially allocated B-tree pages from striding into a single
// instance.
func (b *BufferPool) instance(id PageID) *poolInstance {
	if len(b.instances) == 1 {
		return b.instances[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return b.instances[h%uint64(len(b.instances))]
}

// Instances reports the configured instance count.
func (b *BufferPool) Instances() int { return len(b.instances) }

// Fetch pins a page, reading it from disk on a miss.
func (b *BufferPool) Fetch(id PageID) (*page, error) {
	return b.instance(id).fetch(id)
}

func (b *poolInstance) fetch(id PageID) (*page, error) {
	b.mu.Lock()
	if b.ioErr != nil {
		err := b.ioErr
		b.mu.Unlock()
		return nil, err
	}
	if p, ok := b.frames[id]; ok {
		b.hits.Add(1)
		if b.obsHits != nil {
			b.obsHits.Add(1)
		}
		p.pins++
		b.touch(p)
		b.mu.Unlock()
		return p, nil
	}
	b.misses.Add(1)
	if b.obsMisses != nil {
		b.obsMisses.Add(1)
	}
	p, err := b.admit(id)
	if err != nil {
		b.mu.Unlock()
		return nil, err
	}
	p.pins++
	b.mu.Unlock()
	return p, nil
}

// admit loads a page into a (possibly evicted) frame. Caller holds b.mu.
func (b *poolInstance) admit(id PageID) (*page, error) {
	for len(b.frames) >= b.capacity {
		if err := b.evictOne(); err != nil {
			return nil, err
		}
	}
	p := &page{id: id}
	if err := b.pager.read(id, &p.data); err != nil {
		return nil, fmt.Errorf("minidb: reading page %d: %w", id, err)
	}
	b.frames[id] = p
	b.insertOld(p)
	return p, nil
}

// evictOne removes the least recently used unpinned page, flushing it if
// dirty. Caller holds b.mu.
func (b *poolInstance) evictOne() error {
	for p := b.tail; p != nil; p = p.prev {
		if p.pins > 0 {
			continue
		}
		if p.dirty {
			if err := b.pager.write(p.id, &p.data); err != nil {
				return err
			}
			b.markClean(p)
		}
		b.unlink(p)
		delete(b.frames, p.id)
		b.evictions.Add(1)
		if b.obsEvictions != nil {
			b.obsEvictions.Add(1)
		}
		return nil
	}
	return fmt.Errorf("minidb: buffer pool instance exhausted (%d pages, all pinned)", len(b.frames))
}

// Unpin releases a pinned page, marking it dirty if modified.
func (b *BufferPool) Unpin(p *page, dirty bool) {
	inst := b.instance(p.id)
	inst.mu.Lock()
	p.pins--
	if dirty && !p.dirty {
		p.dirty = true
		inst.dirty[p.id] = p
	}
	inst.mu.Unlock()
}

// markClean records a completed flush of p. Caller holds b.mu.
func (b *poolInstance) markClean(p *page) {
	p.dirty = false
	delete(b.dirty, p.id)
	b.flushes.Add(1)
}

// touch implements the young/old promotion policy. Caller holds b.mu.
func (b *poolInstance) touch(p *page) {
	if p.young {
		// Move to head of young list.
		b.unlink(p)
		b.insertYoung(p)
		return
	}
	// Old-sublist page re-accessed: promote to young.
	b.unlink(p)
	p.young = true
	b.insertYoung(p)
}

// insertYoung places p at the global head. Caller holds b.mu.
func (b *poolInstance) insertYoung(p *page) {
	p.prev = nil
	p.next = b.head
	if b.head != nil {
		b.head.prev = p
	}
	b.head = p
	if b.tail == nil {
		b.tail = p
	}
	p.young = true
}

// insertOld places p at the old-sublist head (roughly oldPct from the
// tail). Caller holds b.mu.
func (b *poolInstance) insertOld(p *page) {
	p.young = false
	if b.oldHead == nil || b.frames[b.oldHead.id] == nil {
		b.relocateOldHead()
	}
	at := b.oldHead
	if at == nil {
		// List shorter than the young target: append at tail.
		p.prev = b.tail
		p.next = nil
		if b.tail != nil {
			b.tail.next = p
		}
		b.tail = p
		if b.head == nil {
			b.head = p
		}
		b.oldHead = p
		return
	}
	// Insert before `at`.
	p.prev = at.prev
	p.next = at
	if at.prev != nil {
		at.prev.next = p
	} else {
		b.head = p
	}
	at.prev = p
	b.oldHead = p
}

// relocateOldHead walks from the tail to position the old boundary at
// oldPct of the list. Caller holds b.mu.
func (b *poolInstance) relocateOldHead() {
	target := len(b.frames) * b.oldPct / 100
	p := b.tail
	for i := 1; i < target && p != nil; i++ {
		p = p.prev
	}
	b.oldHead = p
}

// unlink removes p from the LRU list. Caller holds b.mu.
func (b *poolInstance) unlink(p *page) {
	if b.oldHead == p {
		b.oldHead = p.next
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else if b.head == p {
		b.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else if b.tail == p {
		b.tail = p.prev
	}
	p.prev, p.next = nil, nil
}

// cleanerLoop is the background page cleaner.
func (b *BufferPool) cleanerLoop(interval time.Duration) {
	defer close(b.cleanerDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.cleanerStop:
			return
		case <-ticker.C:
			budget := b.ioCapacity * int(interval) / int(time.Second)
			if budget < 1 {
				budget = 1
			}
			b.CleanPass(b.lruScanDepth, budget)
		}
	}
}

// CleanPass scans up to scanDepth pages from each instance's LRU tail and
// flushes dirty ones, dividing writeBudget across the instances (every
// instance gets at least one write, mirroring InnoDB's per-instance cleaner
// slots). It returns the number flushed.
func (b *BufferPool) CleanPass(scanDepth, writeBudget int) int {
	per := writeBudget / len(b.instances)
	if per < 1 {
		per = 1
	}
	flushed := 0
	for _, inst := range b.instances {
		if flushed >= writeBudget {
			break
		}
		budget := per
		if rest := writeBudget - flushed; budget > rest {
			budget = rest
		}
		flushed += inst.cleanPass(scanDepth, budget)
	}
	return flushed
}

func (b *poolInstance) cleanPass(scanDepth, writeBudget int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	flushed := 0
	scanned := 0
	for p := b.tail; p != nil && scanned < scanDepth && flushed < writeBudget; p = p.prev {
		scanned++
		if p.dirty && p.pins == 0 {
			if err := b.pager.write(p.id, &p.data); err != nil {
				if b.ioErr == nil {
					b.ioErr = err
				}
				return flushed
			}
			b.markClean(p)
			flushed++
		}
	}
	return flushed
}

// FlushAll writes every dirty page (checkpoint): instance by instance, and
// within an instance in ascending page-id order, so the sequence of writes
// is a function of the workload, not of Go's map iteration — a recorded
// crash point names the same durable state on every run. Pinned pages are
// written under their shared page latch so an in-flight leaf write cannot
// tear the checkpoint image.
func (b *BufferPool) FlushAll() error {
	for _, inst := range b.instances {
		if err := inst.flushAll(); err != nil {
			return err
		}
	}
	return nil
}

func (b *poolInstance) flushAll() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ioErr != nil {
		return b.ioErr
	}
	ids := make([]PageID, 0, len(b.dirty))
	for id := range b.dirty {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p := b.dirty[id]
		if p.pins > 0 {
			p.latch.RLock()
		}
		err := b.pager.write(p.id, &p.data)
		if p.pins > 0 {
			p.latch.RUnlock()
		}
		if err != nil {
			return err
		}
		b.markClean(p)
	}
	return nil
}

// Close stops the cleaner and checkpoints.
func (b *BufferPool) Close() error {
	if b.cleanerStop != nil {
		close(b.cleanerStop)
		<-b.cleanerDone
	}
	return b.FlushAll()
}

// Stats reports pool counters aggregated across instances.
func (b *BufferPool) Stats() (hits, misses, flushes, evictions uint64) {
	for _, inst := range b.instances {
		hits += inst.hits.Load()
		misses += inst.misses.Load()
		flushes += inst.flushes.Load()
		evictions += inst.evictions.Load()
	}
	return hits, misses, flushes, evictions
}

// HitRatio returns hits / (hits + misses), or 1 with no traffic.
func (b *BufferPool) HitRatio() float64 {
	h, m, _, _ := b.Stats()
	if h+m == 0 {
		return 1
	}
	return float64(h) / float64(h+m)
}

// Len returns the resident page count across instances.
func (b *BufferPool) Len() int {
	n := 0
	for _, inst := range b.instances {
		inst.mu.Lock()
		n += len(inst.frames)
		inst.mu.Unlock()
	}
	return n
}
