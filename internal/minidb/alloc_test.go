package minidb

import (
	"runtime"
	"testing"

	"repro/internal/vfs"
)

// The engine's cost is proportional to what a workload touches, not to the
// knob values it runs under. These two tests state that where tier-1 sees it.

// TestOpenCloseAllocationIndependentOfKnobs: opening and closing an empty
// database at the top of the knob ranges — a 4 GB buffer pool, a 64 MB log
// buffer — allocates under 1 MB. (Before the frame table and the log buffer
// were demand-sized this was 64 MB of log buffer plus a million-entry map.)
func TestOpenCloseAllocationIndependentOfKnobs(t *testing.T) {
	cfg := DefaultTestConfig(t.TempDir())
	cfg.BufferPoolBytes = 4 << 30
	cfg.WAL.BufferBytes = 64 << 20
	openClose := func() {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, openClose) // runs+1 calls: one warm-up
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("Open+Close: %d bytes, %.0f allocations", perRun, allocs)
	if perRun >= 1<<20 {
		t.Fatalf("Open+Close of an empty database allocated %d bytes; want < 1 MB whatever the knobs say", perRun)
	}
}

// TestInPlaceLeafWritesAllocationFree: a Put (insert or overwrite) or Delete
// that stays inside a resident leaf edits the page bytes where they lie.
func TestInPlaceLeafWritesAllocationFree(t *testing.T) {
	dir := t.TempDir()
	pg, err := newPager(vfs.OS(), dir+"/data.mdb", dir+"/dblwr.mdb", true)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.close()
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 64})
	defer pool.Close()
	tree, err := newBTree(pool, pg)
	if err != nil {
		t.Fatal(err)
	}
	val := rowPayload(7)
	for k := int64(0); k < 20; k++ { // one leaf, room to spare
		if err := tree.Put(k, val); err != nil {
			t.Fatal(err)
		}
	}
	short := val[:40]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tree.Put(7, short); err != nil { // overwrite, shrinking
			t.Fatal(err)
		}
		if err := tree.Put(7, val); err != nil { // overwrite, growing
			t.Fatal(err)
		}
		if found, err := tree.Delete(11); err != nil || !found {
			t.Fatalf("delete: %v %v", found, err)
		}
		if err := tree.Put(11, val); err != nil { // insert
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("in-place leaf writes allocated %.1f times per round; want 0", allocs)
	}
}
