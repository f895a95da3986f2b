package minidb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/vfs"
)

// FlushPolicy mirrors innodb_flush_log_at_trx_commit.
type FlushPolicy int

const (
	// FlushByTimer (0): records stay in the log buffer; a background timer
	// writes and syncs roughly once per second. Fastest, least durable.
	FlushByTimer FlushPolicy = 0
	// FlushEachCommit (1): every commit waits until its record is fsynced.
	// Durable. Concurrent commits are group-committed: one leader writes
	// and fsyncs the whole batched log buffer once, followers wait on its
	// LSN.
	FlushEachCommit FlushPolicy = 1
	// WriteEachCommit (2): write to the OS on every commit, fsync by timer.
	WriteEachCommit FlushPolicy = 2
)

// walRecord kinds.
const (
	recPut    = 1
	recDelete = 2
	recCommit = 3
	// recPageImage is a physical redo record: a full page image captured
	// after a structural modification (split, root growth). Logical
	// put/delete replay cannot resurrect a half-flushed split — the keys
	// that moved to the new sibling predate the log — so recovery first
	// restores imaged pages byte-for-byte, then replays logically on top.
	recPageImage = 4
	// recRoot records a table's root page after a structural modification
	// (Table = table id, Key = root page id). It travels in the same
	// logged transaction as the modification's page images, so recovery
	// sees the root move exactly when it sees the pages it points at.
	recRoot = 5
)

// maxWALBody bounds a single record body; anything larger is treated as a
// torn or corrupt header.
const maxWALBody = 1 << 20

// WAL is an append-only write-ahead log with a log buffer and the three
// InnoDB durability policies. Records carry a CRC so recovery stops at the
// first torn write.
//
// Commit durability under FlushEachCommit uses InnoDB-style group commit: a
// committer appends its commit record, notes the log sequence number (byte
// offset) of its tail, and calls syncTo. The first committer to arrive
// becomes the *leader*: it drains the log buffer to the OS and fsyncs once
// with w.mu released, so concurrent committers keep appending behind it and
// enqueue as *followers* on the condition variable. When the leader's fsync
// returns, every follower whose LSN it covered is released without issuing
// its own fsync; one of the uncovered followers becomes the next leader and
// flushes the whole batch that accumulated meanwhile. Throughput therefore
// scales with concurrent committers instead of paying one fsync each.
//
// A write or fsync failure is sticky: the log cannot tell how much of the
// failed batch reached disk, so every later append or commit fails with the
// original error rather than silently logging past a hole.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond // signals advances of durableLSN / flushing handoff
	file vfs.File
	// buf is the log buffer. cap is its logical capacity
	// (innodb_log_buffer_size) and alone decides when an append forces a
	// write; the backing array grows on demand towards cap, so opening a log
	// costs nothing per configured byte. The array is recycled across logs
	// (logBuffers), so it may start larger than cap; cap still decides.
	buf    []byte
	cap    int
	policy FlushPolicy
	err    error // first write/sync failure; poisons all later operations

	appendLSN  uint64 // bytes appended (buffer + file), cumulative from offset 0
	writtenLSN uint64 // bytes written to the OS; also the next file write offset
	durableLSN uint64 // bytes fsynced
	flushing   bool   // a leader's fsync is in flight

	writes, syncs atomic.Uint64
	grouped       atomic.Uint64 // commits that rode another commit's fsync

	// Telemetry. obsLive caches Enabled() so the commit path only reads the
	// clock around fsyncs when a live recorder is attached; with the Nop
	// recorder the fsync path is unchanged. commitsSinceSync counts commit
	// records appended since the last fsync snapshot (guarded by mu) — the
	// group-commit batch size the fsync makes durable.
	obsLive          bool
	fsyncHist        obs.Histogram // fsync latency, microseconds
	batchHist        obs.Histogram // commits made durable per fsync
	commitsSinceSync int

	stop chan struct{}
	done chan struct{}
}

// WALConfig tunes the log.
type WALConfig struct {
	// BufferBytes is the log buffer capacity (innodb_log_buffer_size).
	BufferBytes int
	// Policy is the commit durability policy.
	Policy FlushPolicy
	// TimerInterval is the background write/sync period for policies 0 and
	// 2 (zero disables the timer; Close still flushes).
	TimerInterval time.Duration
	// Recorder receives fsync-latency and group-commit-batch histograms
	// (nil records nothing). Telemetry only — durability never depends on it.
	Recorder obs.Recorder
}

func openWAL(fsys vfs.FS, path string, cfg WALConfig) (*WAL, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("minidb: opening wal %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if cfg.BufferBytes < 4096 {
		cfg.BufferBytes = 4096
	}
	w := &WAL{
		file:   f,
		cap:    cfg.BufferBytes,
		policy: cfg.Policy,
	}
	if b, ok := logBuffers.Get().(*[]byte); ok {
		w.buf = *b
	}
	if rec := obs.OrNop(cfg.Recorder); rec.Enabled() {
		w.obsLive = true
		w.fsyncHist = rec.Histogram("minidb.wal.fsync_us", obs.ExpBuckets(10, 2, 14))
		w.batchHist = rec.Histogram("minidb.wal.commits_per_fsync",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	}
	// LSNs are absolute file offsets; appends continue from the current end.
	w.appendLSN = uint64(size)
	w.writtenLSN = uint64(size)
	w.durableLSN = uint64(size)
	w.cond = sync.NewCond(&w.mu)
	if cfg.TimerInterval > 0 && cfg.Policy != FlushEachCommit {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.timerLoop(cfg.TimerInterval)
	}
	return w, nil
}

func (w *WAL) timerLoop(interval time.Duration) {
	defer close(w.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			// Failures poison w.err inside the helpers; the next commit or
			// append surfaces them instead of this goroutine dropping them.
			if w.err == nil {
				if err := w.writeLocked(); err == nil {
					w.syncLocked()
				}
			}
			w.mu.Unlock()
		}
	}
}

// Append adds one record: kind, owning transaction, table id, key and
// value. The transaction id is what keeps recovery atomic now that commits
// from concurrent transactions interleave in the log: replay groups records
// by txn and applies a group only when *its own* commit record is on disk.
func (w *WAL) Append(kind byte, txn, table uint32, key int64, val []byte) error {
	return w.AppendUndo(kind, txn, table, key, val, false, nil)
}

// AppendUndo is Append carrying the row's before-image: prev is the value
// the key held before this record's change (prevExisted false means the key
// was absent). Recovery uses it to roll back transactions whose commit
// record never became durable but whose eagerly-applied pages did.
func (w *WAL) AppendUndo(kind byte, txn, table uint32, key int64, val []byte, prevExisted bool, prev []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, err := w.appendLocked(kind, txn, table, key, val, prevExisted, prev)
	return err
}

// AppendPageImage logs a physical redo record holding a full page image,
// owned by txn (the structural modification's logged transaction: the set
// of images is applied at recovery only if the set's commit marker made it
// to disk, so a torn tail can never apply half a split).
func (w *WAL) AppendPageImage(txn uint32, id PageID, img *[PageSize]byte) error {
	return w.AppendUndo(recPageImage, txn, 0, int64(id), img[:], false, nil)
}

// AppendRoot logs a table's root page id under txn (see AppendPageImage).
func (w *WAL) AppendRoot(txn, table uint32, root PageID) error {
	return w.AppendUndo(recRoot, txn, table, int64(root), nil, false, nil)
}

// walRecordOverhead is a record's size beyond its value and before-image
// (see appendLocked for the layout): header, fixed body prefix, prev header.
const walRecordOverhead = 8 + 19 + 3

// appendLocked encodes one record straight into the tail of the log buffer
// and returns the LSN of its end. Layout: len uint32 | crc uint32 | body,
// where body is kind byte | txn uint32 | table uint32 | key int64 |
// vlen uint16 | value | prevExisted byte | plen uint16 | prev. Caller holds
// w.mu.
func (w *WAL) appendLocked(kind byte, txn, table uint32, key int64, val []byte, prevExisted bool, prev []byte) (uint64, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := walRecordOverhead + len(val) + len(prev)
	if len(w.buf)+n > w.cap {
		// Log buffer full: forced write (the stall larger
		// innodb_log_buffer_size avoids).
		if err := w.writeLocked(); err != nil {
			return 0, err
		}
	}
	at := len(w.buf)
	w.growBuf(n)
	w.buf = w.buf[:at+n]
	body := w.buf[at+8:]
	body[0] = kind
	binary.LittleEndian.PutUint32(body[1:], txn)
	binary.LittleEndian.PutUint32(body[5:], table)
	binary.LittleEndian.PutUint64(body[9:], uint64(key))
	binary.LittleEndian.PutUint16(body[17:], uint16(len(val)))
	copy(body[19:], val)
	p := 19 + len(val)
	body[p] = 0 // the buffer is reused: every byte of the record is written
	if prevExisted {
		body[p] = 1
	}
	binary.LittleEndian.PutUint16(body[p+1:], uint16(len(prev)))
	copy(body[p+3:], prev)
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.buf[at+4:], crc32.ChecksumIEEE(body))
	w.appendLSN += uint64(n)
	return w.appendLSN, nil
}

// growBuf makes room for n more bytes, doubling the backing array but not
// past the logical capacity (a single record larger than cap still fits:
// it is appended to a just-drained buffer).
func (w *WAL) growBuf(n int) {
	need := len(w.buf) + n
	if need <= cap(w.buf) {
		return
	}
	c := 2 * cap(w.buf)
	if c < 4096 {
		c = 4096
	}
	if c > w.cap {
		c = w.cap
	}
	if c < need {
		c = need
	}
	w.buf = append(make([]byte, 0, c), w.buf...)
}

// Commit appends the transaction's commit record and applies the
// durability policy.
func (w *WAL) Commit(txn uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	lsn, err := w.appendLocked(recCommit, txn, 0, 0, nil, false, nil)
	if err != nil {
		return err
	}
	w.commitsSinceSync++
	switch w.policy {
	case FlushEachCommit:
		err = w.syncToLocked(lsn)
	case WriteEachCommit:
		err = w.writeLocked()
	}
	return err
}

// AppendCommit appends a commit marker without applying the durability
// policy. Structural-modification sets use it: their durability rides on
// the next barrier or commit fsync, and recovery safely drops an unsynced
// set along with the pages it described (none of which can have flushed).
func (w *WAL) AppendCommit(txn uint32) error {
	return w.AppendUndo(recCommit, txn, 0, 0, nil, false, nil)
}

// Sync makes every record appended so far durable. The pager calls this as
// its write-ahead barrier before any page reaches disk; checkpoints call it
// before truncating.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncToLocked(w.appendLSN)
}

// syncToLocked blocks until every log byte up to lsn is fsynced, using the
// leader/follower group-commit protocol. Caller holds w.mu; it is released
// around the fsync and re-held on return.
func (w *WAL) syncToLocked(lsn uint64) error {
	led := false
	for w.durableLSN < lsn {
		if w.err != nil {
			return w.err
		}
		if w.flushing {
			// Follower: a leader's fsync is in flight; wait for its result.
			w.cond.Wait()
			continue
		}
		// Leader: drain the buffer, then fsync with the append lock
		// released so concurrent committers batch behind us.
		led = true
		if err := w.writeLocked(); err != nil {
			w.cond.Broadcast()
			return err
		}
		target := w.writtenLSN
		// Snapshot the batch before releasing the lock: every commit record
		// counted here is in the drained buffer this fsync makes durable.
		batch := w.commitsSinceSync
		w.commitsSinceSync = 0
		w.flushing = true
		w.mu.Unlock()
		var t0 time.Time
		if w.obsLive {
			t0 = time.Now()
		}
		err := w.file.Sync()
		if w.obsLive {
			w.fsyncHist.Observe(float64(time.Since(t0).Microseconds()))
			if batch > 0 {
				w.batchHist.Observe(float64(batch))
			}
		}
		w.syncs.Add(1)
		w.mu.Lock()
		w.flushing = false
		if err == nil && target > w.durableLSN {
			w.durableLSN = target
		}
		if err != nil && w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	if !led {
		w.grouped.Add(1)
	}
	return nil
}

// writeLocked drains the log buffer to the OS at the current append offset.
// Caller holds w.mu.
func (w *WAL) writeLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.file.WriteAt(w.buf, int64(w.writtenLSN)); err != nil {
		w.err = err
		return err
	}
	w.writes.Add(1)
	w.writtenLSN += uint64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// syncLocked fsyncs the log file. Caller holds w.mu.
func (w *WAL) syncLocked() error {
	if w.err != nil {
		return w.err
	}
	w.syncs.Add(1)
	batch := w.commitsSinceSync
	w.commitsSinceSync = 0
	var t0 time.Time
	if w.obsLive {
		t0 = time.Now()
	}
	err := w.file.Sync()
	if w.obsLive {
		w.fsyncHist.Observe(float64(time.Since(t0).Microseconds()))
		if batch > 0 {
			w.batchHist.Observe(float64(batch))
		}
	}
	if err != nil {
		w.err = err
		return err
	}
	w.durableLSN = w.writtenLSN
	return nil
}

// TruncateTo discards everything past off — recovery uses it to cut a torn
// tail before new records (recovery page images) are appended behind it.
func (w *WAL) TruncateTo(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if len(w.buf) != 0 {
		return fmt.Errorf("minidb: TruncateTo with %d buffered bytes", len(w.buf))
	}
	if err := w.file.Truncate(off); err != nil {
		w.err = err
		return err
	}
	if err := w.file.Sync(); err != nil {
		w.err = err
		return err
	}
	w.appendLSN = uint64(off)
	w.writtenLSN = uint64(off)
	w.durableLSN = uint64(off)
	return nil
}

// Reset empties the log after a checkpoint has made every logged change
// durable in the data file. The truncation itself is fsynced so a later
// crash cannot resurrect a half-length stale log under fresh appends.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = w.buf[:0]
	if err := w.file.Truncate(0); err != nil {
		w.err = err
		return err
	}
	if err := w.file.Sync(); err != nil {
		w.err = err
		return err
	}
	w.appendLSN, w.writtenLSN, w.durableLSN = 0, 0, 0
	return nil
}

// logBuffers holds the backing arrays of closed logs' buffers, so a fresh
// engine does not regrow its buffer from empty.
var logBuffers sync.Pool

// Close flushes and closes the log.
func (w *WAL) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.recycleBuf()
	if err := w.writeLocked(); err != nil {
		w.file.Close()
		return err
	}
	if err := w.syncLocked(); err != nil {
		w.file.Close()
		return err
	}
	return w.file.Close()
}

// recycleBuf hands the buffer's backing array to the next log to open. The
// log keeps none of it: an append after Close starts a buffer of its own.
// Caller holds w.mu.
func (w *WAL) recycleBuf() {
	if cap(w.buf) == 0 {
		return
	}
	b := w.buf[:0]
	w.buf = nil
	logBuffers.Put(&b)
}

// Stats reports physical log writes and fsyncs.
func (w *WAL) Stats() (writes, syncs uint64) {
	return w.writes.Load(), w.syncs.Load()
}

// GroupedCommits reports how many commits were made durable by another
// commit's fsync (the group-commit win: with N concurrent committers this
// approaches (N-1)/N of all commits).
func (w *WAL) GroupedCommits() uint64 { return w.grouped.Load() }

// WALEntry is a decoded log record.
type WALEntry struct {
	Kind  byte
	Txn   uint32
	Table uint32
	Key   int64
	Val   []byte
	// PrevExisted/Prev carry the row's before-image for undo.
	PrevExisted bool
	Prev        []byte
}

// walParse is the full decode of a log: the byte length of the valid
// prefix, records of committed transactions flattened in commit order
// (physical page images and root records included), logical records of
// transactions that never committed in append order (for undo), and the
// highest transaction id seen, so a recovering engine continues numbering
// above every id already in the log (its own appended records must not
// collide with stale ones if it crashes mid-recovery).
type walParse struct {
	validLen    int64
	maxTxn      uint32
	committed   []WALEntry
	uncommitted []WALEntry
}

// parseWAL decodes raw log bytes. It never panics: any structural violation
// — short header, oversized length, CRC mismatch, truncated body, interior
// lengths overrunning the body — ends the valid prefix exactly there, which
// is also how a torn tail write manifests.
func parseWAL(data []byte) walParse {
	var p walParse
	pending := make(map[uint32][]WALEntry)
	var commits []uint32 // commit markers in append order
	committedSet := make(map[uint32]bool)
	var seq []WALEntry // non-commit records in append order
	off := 0
	for {
		if off+8 > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n < 19+3 || n > maxWALBody || off+8+n > len(data) {
			break
		}
		body := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != crc {
			break
		}
		kind := body[0]
		if kind != recPut && kind != recDelete && kind != recCommit && kind != recPageImage && kind != recRoot {
			break
		}
		vlen := int(binary.LittleEndian.Uint16(body[17:]))
		if 19+vlen+3 > len(body) {
			break
		}
		q := 19 + vlen
		plen := int(binary.LittleEndian.Uint16(body[q+1:]))
		if q+3+plen > len(body) {
			break
		}
		e := WALEntry{
			Kind:        kind,
			Txn:         binary.LittleEndian.Uint32(body[1:]),
			Table:       binary.LittleEndian.Uint32(body[5:]),
			Key:         int64(binary.LittleEndian.Uint64(body[9:])),
			Val:         append([]byte(nil), body[19:19+vlen]...),
			PrevExisted: body[q] != 0,
			Prev:        append([]byte(nil), body[q+3:q+3+plen]...),
		}
		if kind == recPageImage && (vlen != PageSize || e.Key < 0 || e.Key > int64(invalidPage)) {
			// Structurally valid record with an impossible image: stop,
			// everything from here on is suspect.
			break
		}
		if kind == recRoot && (e.Key < 0 || e.Key > int64(invalidPage)) {
			break
		}
		off += 8 + n
		if e.Txn > p.maxTxn {
			p.maxTxn = e.Txn
		}
		if kind == recCommit {
			commits = append(commits, e.Txn)
			committedSet[e.Txn] = true
		} else {
			pending[e.Txn] = append(pending[e.Txn], e)
			seq = append(seq, e)
		}
	}
	p.validLen = int64(off)
	// Commit order is the serialization order: flatten each committed
	// transaction's records at its commit point.
	for _, txn := range commits {
		p.committed = append(p.committed, pending[txn]...)
		delete(pending, txn)
	}
	// Undo wants global reverse-append order across all uncommitted
	// transactions (with 2PL, successive writers of a row logged each
	// other's values as before-images; unwinding newest-first lands on the
	// oldest before-image, the last committed state). Physical records
	// without a commit marker are simply dropped: their pages can never
	// have reached disk — the flush barrier syncs the marker first.
	for _, e := range seq {
		if !committedSet[e.Txn] && (e.Kind == recPut || e.Kind == recDelete) {
			p.uncommitted = append(p.uncommitted, e)
		}
	}
	return p
}

// ReplayWAL reads committed records from a log file on the real filesystem,
// stopping cleanly at the first torn or corrupt record. Records are grouped
// by transaction id; only groups whose commit record made it to disk are
// returned, ordered by commit (row locks serialize conflicting
// transactions, so commit order is the serialization order), with each
// group's records in append order.
func ReplayWAL(path string) ([]WALEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return parseWAL(data).committed, nil
}
