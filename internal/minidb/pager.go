// Package minidb is a compact, genuinely functional storage engine with the
// knob-sensitive behaviours ResTune tunes: a buffer pool with an LRU
// young/old split and a background page cleaner (innodb_buffer_pool_size,
// innodb_lru_scan_depth, innodb_old_blocks_pct, innodb_io_capacity), a
// write-ahead log with commit-durability policies
// (innodb_flush_log_at_trx_commit, innodb_log_buffer_size), a lock manager
// with spin-then-sleep acquisition (innodb_spin_wait_delay,
// innodb_sync_spin_loops), an admission controller
// (innodb_thread_concurrency) and a table cache (table_open_cache), under a
// B+tree storage layout and a small SQL subset.
//
// The analytical simulator (internal/dbsim) remains the evaluation
// substrate for the paper's experiments — it is deterministic and fast.
// minidb exists so the client-side stack (template extraction, replay at a
// request rate, the tuning loop itself) can be exercised against a real
// database with real disk I/O and real CPU time; see
// examples/real-engine and minidb.Evaluator.
//
// All durable I/O goes through internal/vfs, so the crash-consistency
// harness can swap the OS filesystem for a deterministic fault-injecting
// one; see DESIGN.md's crash-consistency section for the invariants.
package minidb

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// PageSize is the fixed on-disk page size.
const PageSize = 4096

// PageID identifies a page within the database file.
type PageID uint32

// invalidPage marks an absent page reference.
const invalidPage PageID = 0xFFFFFFFF

// page is an in-memory frame.
type page struct {
	id PageID
	// latch orders access to data between concurrent B-tree operations:
	// readers of a node hold it shared, in-place leaf writers hold it
	// exclusive. Structural modifications run under the tree's exclusive
	// latch instead (see DESIGN.md, latch ordering). dirty/pins/young and
	// the list links stay under the owning pool instance's mutex.
	latch sync.RWMutex
	data  [PageSize]byte
	dirty bool
	pins  int
	// young marks membership in the LRU young sublist.
	young bool
	// prev/next chain the LRU list (most recent at head).
	prev, next *page
}

// Doublewrite buffer geometry: a page flush first lands in a fixed slot of
// the doublewrite file (id + checksum + image), is fsynced there, and only
// then overwrites its home location. A crash can therefore tear at most one
// of the two copies, and recovery restores every slot with a valid checksum
// over its home page — the InnoDB answer to torn page writes, minus the
// batching. A page always maps to the same slot, which is what makes
// leaving stale slots behind safe: a slot never holds anything older than
// its page's last initiated write.
const (
	dblwrSlots   = 64
	dblwrMagic   = 0x44424C57 // "DBLW"
	dblwrHdrSize = 12         // magic u32 | page id u32 | crc u32
	dblwrRecSize = dblwrHdrSize + PageSize
)

type dblwrSlot struct {
	mu sync.Mutex
	// homeDirty marks that a home-location write has been issued through
	// this slot since the data file was last fsynced. Before the slot is
	// reused, the data file must be synced — otherwise a crash could lose
	// the previous page's home write after its doublewrite copy was
	// already overwritten.
	homeDirty bool
	// rec is the slot's record image (header + page), allocated on the
	// slot's first use and reused by every later write through it.
	rec []byte
}

// pager performs page-granular file I/O and allocation through the vfs
// seam. ReadAt/WriteAt are positioned I/O, allocation and the physical I/O
// counters are atomics, so concurrent buffer-pool instances only serialize
// on a per-doublewrite-slot mutex (and pages hashing to distinct slots not
// at all).
type pager struct {
	file  vfs.File
	dblwr vfs.File // nil when the doublewrite buffer is disabled
	slots [dblwrSlots]dblwrSlot
	// barrier, when set, runs before any page write reaches the
	// doublewrite buffer or the data file. The DB wires it to the WAL's
	// Sync so undo records and structural page images are always durable
	// before the page states they describe — the write-ahead rule.
	barrier func() error
	pages   atomic.Uint32 // allocated count
	// Reads and Writes count physical page I/O operations.
	reads, writes atomic.Uint64
}

func newPager(fsys vfs.FS, path, dblwrPath string, doublewrite bool) (*pager, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("minidb: opening %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &pager{file: f}
	p.pages.Store(uint32(size / PageSize))
	if doublewrite {
		d, err := fsys.OpenFile(dblwrPath)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("minidb: opening doublewrite buffer %s: %w", dblwrPath, err)
		}
		p.dblwr = d
		if err := p.restoreDoublewrite(); err != nil {
			d.Close()
			f.Close()
			return nil, err
		}
	}
	return p, nil
}

// restoreDoublewrite repairs torn home pages: every doublewrite slot with a
// valid checksum is written back to its home location. This is
// unconditional — the slot copy is, by the write protocol, never older than
// the page's home state, so rewriting is idempotent at worst.
func (p *pager) restoreDoublewrite() error {
	buf := make([]byte, dblwrRecSize)
	restored := false
	for i := 0; i < dblwrSlots; i++ {
		n, err := p.dblwr.ReadAt(buf, int64(i)*dblwrRecSize)
		if err != nil && !errors.Is(err, io.EOF) {
			return fmt.Errorf("minidb: reading doublewrite slot %d: %w", i, err)
		}
		if n < dblwrRecSize {
			break // slots are written in order of first use; a short read ends the scan for this region
		}
		if beU32(buf[0:]) != dblwrMagic {
			continue
		}
		id := PageID(beU32(buf[4:]))
		if crc32.ChecksumIEEE(buf[dblwrHdrSize:]) != beU32(buf[8:]) {
			continue // torn slot write: its home write was never issued
		}
		if _, err := p.file.WriteAt(buf[dblwrHdrSize:], int64(id)*PageSize); err != nil {
			return fmt.Errorf("minidb: restoring page %d from doublewrite: %w", id, err)
		}
		if next := uint32(id) + 1; next > p.pages.Load() {
			p.pages.Store(next)
		}
		restored = true
	}
	if restored {
		return p.file.Sync()
	}
	return nil
}

func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func putBeU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// allocate extends the file by one page.
func (p *pager) allocate() PageID {
	return PageID(p.pages.Add(1) - 1)
}

// read loads a page from disk. The frame is zeroed first so pages past the
// current end of file (allocated but never flushed) come back empty rather
// than retaining the frame's previous occupant.
func (p *pager) read(id PageID, buf *[PageSize]byte) error {
	p.reads.Add(1)
	for i := range buf {
		buf[i] = 0
	}
	_, err := p.file.ReadAt(buf[:], int64(id)*PageSize)
	if errors.Is(err, io.EOF) {
		// Freshly allocated page not yet written: zero-filled beyond the
		// bytes actually read.
		return nil
	}
	return err
}

// slotOf maps a page to its doublewrite slot with the same multiplicative
// hash the buffer pool uses, so consecutively allocated pages spread out.
func slotOf(id PageID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) % dblwrSlots)
}

// write persists a page to disk, honoring the write-ahead barrier and the
// doublewrite protocol.
func (p *pager) write(id PageID, buf *[PageSize]byte) error {
	if p.barrier != nil {
		if err := p.barrier(); err != nil {
			return fmt.Errorf("minidb: log barrier before flushing page %d: %w", id, err)
		}
	}
	p.writes.Add(1)
	if p.dblwr == nil {
		_, err := p.file.WriteAt(buf[:], int64(id)*PageSize)
		return err
	}
	s := &p.slots[slotOf(id)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.homeDirty {
		// The previous page routed through this slot must be durable at
		// home before its doublewrite copy is overwritten.
		if err := p.file.Sync(); err != nil {
			return err
		}
		s.homeDirty = false
	}
	if s.rec == nil {
		s.rec = make([]byte, dblwrRecSize)
	}
	rec := s.rec
	putBeU32(rec[0:], dblwrMagic)
	putBeU32(rec[4:], uint32(id))
	putBeU32(rec[8:], crc32.ChecksumIEEE(buf[:]))
	copy(rec[dblwrHdrSize:], buf[:])
	if _, err := p.dblwr.WriteAt(rec, int64(slotOf(id))*dblwrRecSize); err != nil {
		return err
	}
	if err := p.dblwr.Sync(); err != nil {
		return err
	}
	if _, err := p.file.WriteAt(buf[:], int64(id)*PageSize); err != nil {
		return err
	}
	s.homeDirty = true
	return nil
}

// sync makes every page written so far durable. Checkpoints call this
// before the WAL is truncated; skipping it is exactly the bug the crash
// harness exists to catch (committed pages evaporating with the log).
func (p *pager) sync() error { return p.file.Sync() }

func (p *pager) close() error {
	if p.dblwr != nil {
		if err := p.dblwr.Close(); err != nil {
			p.file.Close()
			return err
		}
	}
	return p.file.Close()
}

// counters returns physical read/write totals.
func (p *pager) counters() (reads, writes uint64) {
	return p.reads.Load(), p.writes.Load()
}
