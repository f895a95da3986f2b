package minidb

import (
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/vfs"
)

// The engine's cost is proportional to what a workload touches, not to the
// knob values it runs under. These tests state that where tier-1 sees it.

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

// loadedDB opens a database with a pool of the given frames (one instance,
// no cleaner) and loads rows [0, n) into table "t".
func loadedDB(t *testing.T, frames int, n int64) *DB {
	t.Helper()
	cfg := DefaultTestConfig(t.TempDir())
	cfg.BufferPoolBytes = int64(frames) * PageSize
	cfg.BufferPoolInstances = 1
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := NewExecutor(db, n).Load("t", n); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCountAllocationFree: a range count over a resident multi-level tree
// copies nothing — no leaf snapshot, no decoded internal node.
func TestCountAllocationFree(t *testing.T) {
	const rows = 8000 // three levels: root, internal nodes, leaves
	db := loadedDB(t, 1024, rows)
	tree, _, err := db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	for id := tree.Root(); ; depth++ {
		p, err := db.pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		leaf := p.data[0] == nodeLeaf
		if !leaf {
			id = internalChild(&p.data, 0)
		}
		db.pool.Unpin(p, false)
		if leaf {
			break
		}
	}
	if depth < 2 {
		t.Fatalf("tree has %d internal levels; want a multi-level tree", depth)
	}
	if n, err := db.Count("t", 0, rows); err != nil || n != rows { // makes every page resident
		t.Fatalf("Count over the table = %d, %v; want %d", n, err, rows)
	}
	ranges := [][2]int64{{0, rows}, {17, 17}, {100, 300}, {rows - 5, rows + 50}, {40, 10}}
	if allocs := testing.AllocsPerRun(50, func() {
		for _, r := range ranges {
			if _, err := db.Count("t", r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("range counts allocated %.1f times per round; want 0", allocs)
	}
}

// TestCountMatchesScanPageAccesses: Count and a Scan whose callback only
// counts make the same page accesses in the same order. On twin databases
// whose 16-frame pool cannot hold the tree, the same seeded mix of ranges —
// one through Count, one through Scan — must give equal counts and leave
// equal counters: any page fetched by one descent and not the other moves
// the hits, misses, physical reads or evictions, and with them the LRU
// order every later statement sees.
func TestCountMatchesScanPageAccesses(t *testing.T) {
	const rows = 3000
	counted, scanned := loadedDB(t, 16, rows), loadedDB(t, 16, rows)
	if a, b := counted.Stats(), scanned.Stats(); a != b {
		t.Fatalf("twins differ after load:\n%+v\n%+v", a, b)
	}
	r := rng.Derive(1, "count-vs-scan")
	for i := 0; i < 400; i++ {
		lo := r.Int63n(rows+200) - 100
		hi := lo + r.Int63n(300) - 20 // some empty (hi < lo) and past either end
		n, err := counted.Count("t", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		m := 0
		if err := scanned.Scan("t", lo, hi, func(int64, []byte) bool { m++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != m {
			t.Fatalf("op %d: Count[%d,%d] = %d, Scan visited %d", i, lo, hi, n, m)
		}
	}
	a, b := counted.Stats(), scanned.Stats()
	if a.Evictions == 0 {
		t.Fatal("no evictions: the pool holds the tree and the test shows nothing")
	}
	if a != b {
		t.Fatalf("Count and Scan left different counters:\ncount %+v\nscan  %+v", a, b)
	}
}
