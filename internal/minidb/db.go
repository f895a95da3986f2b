package minidb

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/knobs"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// Config assembles the engine's tunables — each field mirrors the MySQL
// knob the paper tunes.
type Config struct {
	// Dir is the database directory (data file, WAL, catalog).
	Dir string
	// FS is the filesystem backend; nil means the real one (vfs.OS). The
	// crash harness passes a vfs.FaultFS here.
	FS vfs.FS
	// DisableDoublewrite turns off the torn-page doublewrite buffer
	// (innodb_doublewrite=OFF): faster flushes, no protection against a
	// page write torn mid-sector.
	DisableDoublewrite bool
	// BufferPoolBytes sizes the buffer pool (innodb_buffer_pool_size).
	BufferPoolBytes int64
	// BufferPoolInstances splits the pool into independently latched
	// instances (innodb_buffer_pool_instances; values < 1 mean one).
	BufferPoolInstances int
	// OldBlocksPct is the LRU old-sublist share (innodb_old_blocks_pct).
	OldBlocksPct int
	// LRUScanDepth is the page cleaner scan depth (innodb_lru_scan_depth).
	LRUScanDepth int
	// IOCapacity caps cleaner writes/second (innodb_io_capacity).
	IOCapacity int
	// CleanerInterval is the cleaner period (0 disables it).
	CleanerInterval time.Duration
	// WAL tunes the redo log.
	WAL WALConfig
	// SpinWaitDelay / SyncSpinLoops tune lock acquisition.
	SpinWaitDelay int
	SyncSpinLoops int
	// ThreadConcurrency caps concurrently executing operations
	// (innodb_thread_concurrency; 0 = unlimited).
	ThreadConcurrency int
	// TableOpenCache bounds cached table handles (table_open_cache).
	TableOpenCache int
	// Recorder receives engine telemetry (WAL fsync/batch histograms,
	// per-shard pool counters, lock- and latch-wait counters, recovery-phase
	// spans). Nil records nothing. Telemetry is strictly write-only: no
	// engine decision reads it, so deterministic replays stay bit-identical
	// with a live recorder attached.
	Recorder obs.Recorder
}

// DefaultTestConfig returns a small configuration suitable for tests.
func DefaultTestConfig(dir string) Config {
	return Config{
		Dir:                 dir,
		BufferPoolBytes:     256 * PageSize,
		BufferPoolInstances: 4,
		OldBlocksPct:        37,
		LRUScanDepth:        64,
		IOCapacity:          2000,
		WAL:                 WALConfig{BufferBytes: 1 << 16, Policy: FlushEachCommit},
		SyncSpinLoops:       30,
		SpinWaitDelay:       6,
		TableOpenCache:      64,
	}
}

// ConfigFromKnobs maps a native configuration over a knob subspace onto
// engine parameters; knobs the engine does not model are ignored.
func ConfigFromKnobs(dir string, space *knobs.Space, native []float64) Config {
	cfg := DefaultTestConfig(dir)
	get := func(name string) (float64, bool) {
		i := space.Index(name)
		if i < 0 {
			return 0, false
		}
		return native[i], true
	}
	if v, ok := get("innodb_buffer_pool_size"); ok {
		cfg.BufferPoolBytes = int64(v)
	}
	if v, ok := get("innodb_buffer_pool_instances"); ok {
		cfg.BufferPoolInstances = int(v)
	}
	if v, ok := get("innodb_old_blocks_pct"); ok {
		cfg.OldBlocksPct = int(v)
	}
	if v, ok := get("innodb_lru_scan_depth"); ok {
		cfg.LRUScanDepth = int(v)
	}
	if v, ok := get("innodb_io_capacity"); ok {
		cfg.IOCapacity = int(v)
	}
	if v, ok := get("innodb_flush_log_at_trx_commit"); ok {
		cfg.WAL.Policy = FlushPolicy(int(v))
	}
	if v, ok := get("innodb_log_buffer_size"); ok {
		cfg.WAL.BufferBytes = int(v)
	}
	if v, ok := get("innodb_spin_wait_delay"); ok {
		cfg.SpinWaitDelay = int(v)
	}
	if v, ok := get("innodb_sync_spin_loops"); ok {
		cfg.SyncSpinLoops = int(v)
	}
	if v, ok := get("innodb_thread_concurrency"); ok {
		cfg.ThreadConcurrency = int(v)
	}
	if v, ok := get("table_open_cache"); ok {
		cfg.TableOpenCache = int(v)
	}
	return cfg
}

// catalogEntry persists one table's identity.
type catalogEntry struct {
	Root PageID `json:"root"`
	ID   uint32 `json:"id"`
}

// tableHandle is a cached open table. lastUsed is a logical-clock tick
// updated with an atomic store so cache hits never take the exclusive
// catalog lock.
type tableHandle struct {
	tree     *BTree
	id       uint32
	lastUsed atomic.Int64
}

// DB is the engine instance. The catalog lock (db.mu) is a read-write
// mutex held shared on the statement hot path (table-cache hits) and
// exclusive only for DDL, table opens/evictions, and root-pointer
// bookkeeping; statement data access is serialized by the per-table B-tree
// latches and the row-lock manager instead (see DESIGN.md).
type DB struct {
	cfg   Config
	fs    vfs.FS
	pager *pager
	pool  *BufferPool
	wal   *WAL
	locks *LockManager
	admit chan struct{}

	mu      sync.RWMutex
	catalog map[string]catalogEntry
	open    map[string]*tableHandle // table cache (bounded by TableOpenCache)
	nextID  uint32

	clock   atomic.Int64  // logical clock for table-cache LRU
	nextTxn atomic.Uint32 // WAL transaction ids

	tableOpens  atomic.Uint64
	tableHits   atomic.Uint64
	commits     atomic.Uint64
	statementsN atomic.Uint64

	rec            obs.Recorder // never nil (OrNop); write-only telemetry
	treeLatchWaits obs.Counter  // nil unless the recorder is live
}

// Open creates or reopens a database in cfg.Dir, running crash recovery:
// doublewrite restore, physical page-image redo, logical redo of committed
// transactions, undo of uncommitted ones, then a checkpoint that empties
// the log.
func Open(cfg Config) (*DB, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.OS()
	}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, err
	}
	pg, err := newPager(fsys,
		filepath.Join(cfg.Dir, "data.mdb"),
		filepath.Join(cfg.Dir, "dblwr.mdb"),
		!cfg.DisableDoublewrite)
	if err != nil {
		return nil, err
	}
	rec := obs.OrNop(cfg.Recorder)
	frames := int(cfg.BufferPoolBytes / PageSize)
	pool := newBufferPool(pg, BufferPoolConfig{
		Frames:          frames,
		Instances:       cfg.BufferPoolInstances,
		OldBlocksPct:    cfg.OldBlocksPct,
		LRUScanDepth:    cfg.LRUScanDepth,
		IOCapacity:      cfg.IOCapacity,
		CleanerInterval: cfg.CleanerInterval,
		Recorder:        rec,
	})
	db := &DB{
		cfg:     cfg,
		fs:      fsys,
		pager:   pg,
		pool:    pool,
		locks:   NewLockManager(cfg.SpinWaitDelay, cfg.SyncSpinLoops),
		catalog: make(map[string]catalogEntry),
		open:    make(map[string]*tableHandle),
		rec:     rec,
	}
	db.locks.setRecorder(rec)
	if rec.Enabled() {
		db.treeLatchWaits = rec.Counter("minidb.btree.latch_waits")
	}
	if cfg.ThreadConcurrency > 0 {
		db.admit = make(chan struct{}, cfg.ThreadConcurrency)
	}
	fail := func(err error) (*DB, error) {
		if pool.cleanerStop != nil {
			close(pool.cleanerStop)
			<-pool.cleanerDone
		}
		pg.close()
		return nil, err
	}
	if err := db.loadCatalog(); err != nil {
		return fail(err)
	}
	walPath := filepath.Join(cfg.Dir, "wal.log")
	walBytes, err := fsys.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return fail(err)
	}
	parse := parseWAL(walBytes)
	walCfg := cfg.WAL
	walCfg.Recorder = rec
	db.wal, err = openWAL(fsys, walPath, walCfg)
	if err != nil {
		return fail(err)
	}
	// The write-ahead rule: no page reaches disk before the log records
	// describing it. Every pager write syncs the log first.
	pg.barrier = db.wal.Sync
	// Recovery appends its own records (split images); their transaction
	// ids must not collide with ids already in the log if we crash again
	// mid-recovery.
	db.nextTxn.Store(parse.maxTxn)
	if len(walBytes) > 0 {
		if int64(len(walBytes)) > parse.validLen {
			// Torn tail: cut it before appending behind it.
			if err := db.wal.TruncateTo(parse.validLen); err != nil {
				db.wal.Close()
				return fail(err)
			}
		}
		if err := db.recover(parse); err != nil {
			db.wal.Close()
			return fail(fmt.Errorf("minidb: recovery: %w", err))
		}
		if err := db.checkpoint(); err != nil {
			db.wal.Close()
			return fail(fmt.Errorf("minidb: recovery checkpoint: %w", err))
		}
	} else if err := db.advanceAllocator(); err != nil {
		db.wal.Close()
		return fail(err)
	}
	return db, nil
}

func (db *DB) catalogPath() string { return filepath.Join(db.cfg.Dir, "catalog.json") }

func (db *DB) loadCatalog() error {
	data, err := db.fs.ReadFile(db.catalogPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &db.catalog); err != nil {
		return fmt.Errorf("minidb: corrupt catalog: %w", err)
	}
	for _, e := range db.catalog {
		if e.ID >= db.nextID {
			db.nextID = e.ID + 1
		}
	}
	return nil
}

// saveCatalog persists the catalog atomically: write + fsync a temp file,
// then rename over the live one, so a crash leaves either the old or the
// new catalog — never a truncated mix.
func (db *DB) saveCatalog() error {
	data, err := json.Marshal(db.catalog)
	if err != nil {
		return err
	}
	tmp := db.catalogPath() + ".tmp"
	f, err := db.fs.OpenFile(tmp)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return db.fs.Rename(tmp, db.catalogPath())
}

// hookTree wires a tree's structural hook: a completed split logs every
// page it wrote plus the resulting root as one logged transaction. The
// commit marker is what recovery keys atomicity on — a torn tail that cuts
// the set drops all of it, matching the on-disk state (the pages were
// pinned until the set was logged, so none of them can have been flushed).
func (db *DB) hookTree(t *BTree, table uint32) {
	t.latchWaits = db.treeLatchWaits
	t.onStructural = func(pages []*page, root PageID) error {
		txn := db.nextTxn.Add(1)
		for _, p := range pages {
			if err := db.wal.AppendPageImage(txn, p.id, &p.data); err != nil {
				return err
			}
		}
		if err := db.wal.AppendRoot(txn, table, root); err != nil {
			return err
		}
		return db.wal.AppendCommit(txn)
	}
}

// recover replays a parsed log over the on-disk state:
//
//  1. Physical redo — committed page images are restored byte-for-byte in
//     commit order and root records move table roots. This rebuilds
//     structural modifications that logical replay cannot (keys moved by a
//     split predate the log's logical records).
//  2. Logical redo — committed put/delete records replay in commit order
//     through ordinary B-trees rooted at the restored roots. Idempotent
//     over whatever subset of pages happened to be flushed.
//  3. Undo — records of transactions with no durable commit marker are
//     rolled back newest-first using their logged before-images, erasing
//     eagerly-applied writes that reached disk via evicted dirty pages.
//
// Trees used during recovery carry the structural hook, so splits replay
// causes are themselves logged — a crash during recovery recovers.
func (db *DB) recover(p walParse) error {
	if db.rec.Enabled() {
		sp := db.rec.Span("minidb.recovery",
			obs.Int("committed", len(p.committed)),
			obs.Int("uncommitted", len(p.uncommitted)))
		defer sp.End()
	}
	byID := make(map[uint32]string)
	for name, e := range db.catalog {
		byID[e.ID] = name
	}
	phase := db.rec.Span("minidb.recovery.physical_redo")
	for _, e := range p.committed {
		switch e.Kind {
		case recPageImage:
			id := PageID(e.Key)
			if next := uint32(id) + 1; next > db.pager.pages.Load() {
				db.pager.pages.Store(next)
			}
			pg, err := db.pool.Fetch(id)
			if err != nil {
				return err
			}
			pg.latch.Lock()
			copy(pg.data[:], e.Val)
			pg.latch.Unlock()
			db.pool.Unpin(pg, true)
		case recRoot:
			if name, ok := byID[e.Table]; ok {
				ce := db.catalog[name]
				ce.Root = PageID(e.Key)
				db.catalog[name] = ce
			}
		}
	}
	if err := db.advanceAllocator(); err != nil {
		return err
	}
	phase.End()
	phase = db.rec.Span("minidb.recovery.logical_redo")
	trees := make(map[uint32]*BTree)
	tree := func(table uint32) *BTree {
		if t, ok := trees[table]; ok {
			return t
		}
		t := openBTree(db.pool, db.catalog[byID[table]].Root)
		db.hookTree(t, table)
		trees[table] = t
		return t
	}
	for _, e := range p.committed {
		if _, ok := byID[e.Table]; !ok {
			continue // table dropped
		}
		switch e.Kind {
		case recPut:
			if err := tree(e.Table).Put(e.Key, e.Val); err != nil {
				return err
			}
		case recDelete:
			if _, err := tree(e.Table).Delete(e.Key); err != nil {
				return err
			}
		}
	}
	phase.End()
	phase = db.rec.Span("minidb.recovery.undo")
	for i := len(p.uncommitted) - 1; i >= 0; i-- {
		e := p.uncommitted[i]
		if _, ok := byID[e.Table]; !ok {
			continue
		}
		t := tree(e.Table)
		if e.PrevExisted {
			if err := t.Put(e.Key, e.Prev); err != nil {
				return err
			}
		} else if _, err := t.Delete(e.Key); err != nil {
			return err
		}
	}
	phase.End()
	// Roots may have grown during replay.
	for table, t := range trees {
		ce := db.catalog[byID[table]]
		ce.Root = t.Root()
		db.catalog[byID[table]] = ce
	}
	return nil
}

// checkpoint makes every change durable in the data file and empties the
// log: flush all pages (each flush syncs the log first via the barrier),
// fsync the data file, persist the catalog, truncate the log. Callers must
// be quiescent — an in-flight transaction's eager writes would checkpoint
// without the undo records that could erase them.
func (db *DB) checkpoint() error {
	if db.rec.Enabled() {
		sp := db.rec.Span("minidb.checkpoint")
		defer sp.End()
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.pager.sync(); err != nil {
		return err
	}
	db.mu.Lock()
	for name, h := range db.open {
		ce := db.catalog[name]
		ce.Root = h.tree.Root()
		db.catalog[name] = ce
	}
	err := db.saveCatalog()
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return db.wal.Reset()
}

// advanceAllocator walks every table from its root and advances the page
// allocator past the highest page id any reachable node references. After
// a crash the data file alone undercounts allocation: pages allocated
// before the crash but never flushed lie beyond EOF, yet a flushed parent
// may still point at them — re-issuing such an id would fuse two live
// nodes onto one page and corrupt the recovered tree.
func (db *DB) advanceAllocator() error {
	if len(db.catalog) == 0 {
		return nil
	}
	maxSeen := PageID(0)
	visited := make(map[PageID]bool)
	for _, ce := range db.catalog {
		if err := db.maxPageInTree(ce.Root, &maxSeen, visited, 0); err != nil {
			return err
		}
	}
	if next := uint32(maxSeen) + 1; next > db.pager.pages.Load() {
		db.pager.pages.Store(next)
	}
	return nil
}

func (db *DB) maxPageInTree(id PageID, maxSeen *PageID, visited map[PageID]bool, depth int) error {
	if id > *maxSeen {
		*maxSeen = id
	}
	// A corrupt page can reference itself or an ancestor; the walk only
	// needs each page once, so cycles are skipped rather than followed.
	if visited[id] || depth >= maxDepth {
		return nil
	}
	visited[id] = true
	p, err := db.pool.Fetch(id)
	if err != nil {
		return err
	}
	if p.data[0] == nodeLeaf {
		// Unflushed pages read back zeroed, i.e. as empty leaves: the id
		// itself is still counted above.
		db.pool.Unpin(p, false)
		return nil
	}
	node := readInternal(&p.data)
	db.pool.Unpin(p, false)
	for _, c := range node.children {
		if err := db.maxPageInTree(c, maxSeen, visited, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// CreateTable registers a new table.
func (db *DB) CreateTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.catalog[name]; exists {
		return fmt.Errorf("minidb: table %s already exists", name)
	}
	t, err := newBTree(db.pool, db.pager)
	if err != nil {
		return err
	}
	db.hookTree(t, db.nextID)
	db.catalog[name] = catalogEntry{Root: t.Root(), ID: db.nextID}
	h := &tableHandle{tree: t, id: db.nextID}
	h.lastUsed.Store(db.clock.Add(1))
	db.nextID++
	db.open[name] = h
	db.evictTablesLocked()
	return db.saveCatalog()
}

// table returns the cached handle, opening it on a miss. A cache hit takes
// only the shared catalog lock plus an atomic clock tick — the common case
// for replay, where every statement resolves a table.
func (db *DB) table(name string) (*BTree, uint32, error) {
	db.mu.RLock()
	if h, ok := db.open[name]; ok {
		h.lastUsed.Store(db.clock.Add(1))
		db.mu.RUnlock()
		db.tableHits.Add(1)
		return h.tree, h.id, nil
	}
	db.mu.RUnlock()
	return db.openTable(name)
}

// openTable is the miss path. Opening is not free: the root page is fetched
// and checksummed (the dictionary work table_open_cache exists to avoid).
func (db *DB) openTable(name string) (*BTree, uint32, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ce, ok := db.catalog[name]
	if !ok {
		return nil, 0, fmt.Errorf("minidb: no such table %s", name)
	}
	if h, ok := db.open[name]; ok {
		// Lost the open race: another statement cached it meanwhile.
		db.tableHits.Add(1)
		h.lastUsed.Store(db.clock.Add(1))
		return h.tree, h.id, nil
	}
	db.tableOpens.Add(1)
	t := openBTree(db.pool, ce.Root)
	db.hookTree(t, ce.ID)
	// Open cost: validate the root page. The shared page latch guards
	// against a concurrent in-place write through a stale handle.
	p, err := db.pool.Fetch(ce.Root)
	if err != nil {
		return nil, 0, err
	}
	p.latch.RLock()
	_ = crc32.ChecksumIEEE(p.data[:])
	p.latch.RUnlock()
	db.pool.Unpin(p, false)
	h := &tableHandle{tree: t, id: ce.ID}
	h.lastUsed.Store(db.clock.Add(1))
	db.open[name] = h
	db.evictTablesLocked()
	return t, ce.ID, nil
}

func (db *DB) evictTablesLocked() {
	limit := db.cfg.TableOpenCache
	if limit < 1 {
		limit = 1
	}
	for len(db.open) > limit {
		victim := ""
		oldest := int64(math.MaxInt64)
		for n, h := range db.open {
			if lu := h.lastUsed.Load(); lu < oldest {
				oldest, victim = lu, n
			}
		}
		// Record the (possibly grown) root before dropping the handle.
		h := db.open[victim]
		ce := db.catalog[victim]
		ce.Root = h.tree.Root()
		db.catalog[victim] = ce
		delete(db.open, victim)
	}
}

// enter applies admission control.
func (db *DB) enter() func() {
	if db.admit == nil {
		return func() {}
	}
	db.admit <- struct{}{}
	return func() { <-db.admit }
}

// Get reads one row.
func (db *DB) Get(tableName string, key int64) ([]byte, bool, error) {
	defer db.enter()()
	db.statementsN.Add(1)
	t, _, err := db.table(tableName)
	if err != nil {
		return nil, false, err
	}
	return t.Get(key)
}

// Put writes one row under the row lock, logged and committed as its own
// transaction. The row's previous value rides along as the WAL record's
// before-image so recovery can undo the write if the commit record never
// becomes durable.
func (db *DB) Put(tableName string, key int64, val []byte) error {
	defer db.enter()()
	db.statementsN.Add(1)
	t, id, err := db.table(tableName)
	if err != nil {
		return err
	}
	lockID := rowLockID(id, key)
	db.locks.Acquire(lockID)
	defer db.locks.Release(lockID)
	prev, existed, err := t.Get(key)
	if err != nil {
		return err
	}
	txn := db.nextTxn.Add(1)
	if err := db.wal.AppendUndo(recPut, txn, id, key, val, existed, prev); err != nil {
		return err
	}
	if err := t.Put(key, val); err != nil {
		return err
	}
	db.syncRoot(tableName, t)
	db.commits.Add(1)
	return db.wal.Commit(txn)
}

// Delete removes one row.
func (db *DB) Delete(tableName string, key int64) (bool, error) {
	defer db.enter()()
	db.statementsN.Add(1)
	t, id, err := db.table(tableName)
	if err != nil {
		return false, err
	}
	lockID := rowLockID(id, key)
	db.locks.Acquire(lockID)
	defer db.locks.Release(lockID)
	prev, existed, err := t.Get(key)
	if err != nil {
		return false, err
	}
	txn := db.nextTxn.Add(1)
	if err := db.wal.AppendUndo(recDelete, txn, id, key, nil, existed, prev); err != nil {
		return false, err
	}
	ok, err := t.Delete(key)
	if err != nil {
		return false, err
	}
	db.commits.Add(1)
	return ok, db.wal.Commit(txn)
}

// Scan visits [lo, hi] in key order.
func (db *DB) Scan(tableName string, lo, hi int64, fn func(key int64, val []byte) bool) error {
	defer db.enter()()
	db.statementsN.Add(1)
	t, _, err := db.table(tableName)
	if err != nil {
		return err
	}
	return t.Scan(lo, hi, fn)
}

// Count returns the number of rows in [lo, hi], copying none of them.
func (db *DB) Count(tableName string, lo, hi int64) (int, error) {
	defer db.enter()()
	db.statementsN.Add(1)
	t, _, err := db.table(tableName)
	if err != nil {
		return 0, err
	}
	return t.Count(lo, hi)
}

// syncRoot records root growth in the in-memory catalog. Durability does
// not depend on it: the split that moved the root logged a root record in
// the WAL, and checkpoints persist the catalog. The common case — the root
// did not move — is checked under the shared lock so the per-statement
// write path stays off the exclusive catalog lock.
func (db *DB) syncRoot(name string, t *BTree) {
	root := t.Root()
	db.mu.RLock()
	same := db.catalog[name].Root == root
	db.mu.RUnlock()
	if same {
		return
	}
	db.mu.Lock()
	ce := db.catalog[name]
	if ce.Root != root {
		ce.Root = root
		db.catalog[name] = ce
	}
	db.mu.Unlock()
}

func rowLockID(table uint32, key int64) uint64 {
	return uint64(table)<<40 ^ uint64(key)
}

// Close checkpoints and shuts down. Every step's error is reported (the
// first wins), but shutdown always proceeds through closing the files.
func (db *DB) Close() error {
	err := db.pool.Close() // stops the cleaner, flushes every dirty page
	if err == nil {
		err = db.pager.sync()
	}
	db.mu.Lock()
	for name, h := range db.open {
		ce := db.catalog[name]
		ce.Root = h.tree.Root()
		db.catalog[name] = ce
	}
	db.mu.Unlock()
	if err == nil {
		err = db.saveCatalog()
	}
	if err == nil {
		// A clean shutdown checkpointed everything: the WAL is obsolete.
		err = db.wal.Reset()
	}
	if werr := db.wal.Close(); err == nil {
		err = werr
	}
	if perr := db.pager.close(); err == nil {
		err = perr
	}
	return err
}

// Stats is an engine counter snapshot — the minidb analogue of the
// simulator's internal metrics.
type Stats struct {
	BufferHits, BufferMisses  uint64
	PageFlushes, Evictions    uint64
	PhysicalReads, PhysWrites uint64
	WALWrites, WALSyncs       uint64
	WALGroupCommits           uint64
	LockWaits, SpinRounds     uint64
	TableOpens, TableHits     uint64
	Commits, Statements       uint64
	ResidentPages             int
}

// Stats returns the current counters.
func (db *DB) Stats() Stats {
	h, m, f, e := db.pool.Stats()
	pr, pw := db.pager.counters()
	ww, ws := db.wal.Stats()
	lw, sr := db.locks.Stats()
	return Stats{
		BufferHits: h, BufferMisses: m, PageFlushes: f, Evictions: e,
		PhysicalReads: pr, PhysWrites: pw,
		WALWrites: ww, WALSyncs: ws,
		WALGroupCommits: db.wal.GroupedCommits(),
		LockWaits:       lw, SpinRounds: sr,
		TableOpens: db.tableOpens.Load(), TableHits: db.tableHits.Load(),
		Commits: db.commits.Load(), Statements: db.statementsN.Load(),
		ResidentPages: db.pool.Len(),
	}
}
