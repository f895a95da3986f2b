package minidb

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// --- WAL group commit -------------------------------------------------------

// TestWALGroupCommitConcurrent drives many concurrent committers through the
// leader/follower protocol and checks both the performance invariant (most
// commits ride another commit's fsync) and durability (every committed
// transaction replays).
func TestWALGroupCommitConcurrent(t *testing.T) {
	const goroutines = 32
	const perG = 8
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(vfs.OS(), path, WALConfig{Policy: FlushEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	// On a one-core host an fsync can return before the scheduler ever runs
	// a second committer, so the storm would serialize and never exercise
	// the follower path. Hold the flush gate while the first wave of
	// committers piles up in cond.Wait, then release it: one leader's fsync
	// must cover the whole cohort.
	w.mu.Lock()
	w.flushing = true
	w.mu.Unlock()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				txn := uint32(g*perG + i + 1)
				if err := w.Append(recPut, txn, 1, int64(txn), []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if err := w.Commit(txn); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond) // let every goroutine park its first commit
	w.mu.Lock()
	w.flushing = false
	w.cond.Broadcast()
	w.mu.Unlock()
	wg.Wait()
	_, syncs := w.Stats()
	grouped := w.GroupedCommits()
	// Every commit either led an fsync or rode one: the counters must cover
	// the commit count.
	if syncs+grouped < goroutines*perG {
		t.Fatalf("syncs %d + grouped %d < %d commits", syncs, grouped, goroutines*perG)
	}
	if grouped == 0 {
		t.Fatal("no commit rode another's fsync")
	}
	if syncs >= goroutines*perG {
		t.Fatalf("%d fsyncs for %d commits: group commit not batching", syncs, goroutines*perG)
	}
	// "Crash": close the fd without the WAL's graceful flush.
	w.file.Close()
	entries, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	for _, e := range entries {
		seen[e.Key] = true
	}
	for txn := 1; txn <= goroutines*perG; txn++ {
		if !seen[int64(txn)] {
			t.Fatalf("committed txn %d missing after replay (%d entries)", txn, len(entries))
		}
	}
}

// TestWALReplayInterleavedTxns checks that recovery is atomic per
// transaction when records from concurrent transactions interleave in the
// log: a commit record must only commit its own transaction's records.
func TestWALReplayInterleavedTxns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := openWAL(vfs.OS(), path, WALConfig{Policy: FlushEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	// txn 1 and txn 2 interleave; txn 2 commits first; txn 3 never commits.
	w.Append(recPut, 1, 1, 100, []byte("t1-a"))
	w.Append(recPut, 2, 1, 200, []byte("t2-a"))
	w.Append(recPut, 3, 1, 300, []byte("t3-uncommitted"))
	w.Append(recPut, 1, 1, 101, []byte("t1-b"))
	w.Commit(2)
	w.Commit(1)
	w.mu.Lock()
	w.writeLocked()
	w.mu.Unlock()
	w.file.Close()

	entries, err := ReplayWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("replayed %d entries, want 3: %+v", len(entries), entries)
	}
	// Commit order: txn 2's record first, then txn 1's two in append order.
	if entries[0].Key != 200 || entries[1].Key != 100 || entries[2].Key != 101 {
		t.Fatalf("wrong commit-order grouping: %+v", entries)
	}
	for _, e := range entries {
		if e.Key == 300 {
			t.Fatal("uncommitted txn 3 leaked into replay")
		}
	}
}

// --- sharded buffer pool ----------------------------------------------------

func TestBufferPoolInstanceClamping(t *testing.T) {
	pg := testPager(t)
	cases := []struct {
		frames, instances, want int
	}{
		{256, 0, 1},    // zero/unspecified -> one instance (legacy behaviour)
		{256, 4, 4},    // plenty of frames per instance
		{256, 100, 32}, // capped so every instance keeps >= 8 frames
		{16, 8, 2},     // shrunk: 16 frames can only feed 2 instances
		{8, 16, 1},     // tiny pool -> single instance
	}
	for _, c := range cases {
		pool := newBufferPool(pg, BufferPoolConfig{Frames: c.frames, Instances: c.instances})
		if got := pool.Instances(); got != c.want {
			t.Errorf("frames=%d instances=%d: got %d want %d", c.frames, c.instances, got, c.want)
		}
		pool.Close()
	}
}

// TestBufferPoolShardedIntegrity pushes pages through a multi-instance pool
// and checks that content, eviction and aggregate stats behave exactly like
// the single-instance pool.
func TestBufferPoolShardedIntegrity(t *testing.T) {
	pg := testPager(t)
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 32, Instances: 4})
	defer pool.Close()

	ids := make([]PageID, 128)
	for i := range ids {
		ids[i] = pg.allocate()
		p, err := pool.Fetch(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		p.latch.Lock()
		p.data[0] = byte(i)
		p.data[1] = byte(i >> 8)
		p.latch.Unlock()
		pool.Unpin(p, true)
	}
	// 128 pages through a 32-frame pool: every instance evicted and flushed.
	_, misses, flushes, evictions := pool.Stats()
	if misses != 128 {
		t.Fatalf("misses %d want 128", misses)
	}
	if evictions < 96 || flushes < 96 {
		t.Fatalf("evictions %d flushes %d", evictions, flushes)
	}
	if pool.Len() > 32 {
		t.Fatalf("resident %d exceeds capacity", pool.Len())
	}
	// All content survives eviction round-trips.
	for i, id := range ids {
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.latch.RLock()
		b0, b1 := p.data[0], p.data[1]
		p.latch.RUnlock()
		pool.Unpin(p, false)
		if b0 != byte(i) || b1 != byte(i>>8) {
			t.Fatalf("page %d content lost: %d %d", i, b0, b1)
		}
	}
}

// TestBufferPoolShardedConcurrent hammers a sharded pool from many
// goroutines; run under -race this exercises the per-instance locking.
func TestBufferPoolShardedConcurrent(t *testing.T) {
	pg := testPager(t)
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 64, Instances: 8})
	defer pool.Close()
	ids := make([]PageID, 256)
	for i := range ids {
		ids[i] = pg.allocate()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := ids[(g*131+i*17)%len(ids)]
				p, err := pool.Fetch(id)
				if err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					p.latch.Lock()
					p.data[2] = byte(g)
					p.latch.Unlock()
					pool.Unpin(p, true)
				} else {
					p.latch.RLock()
					_ = p.data[2]
					p.latch.RUnlock()
					pool.Unpin(p, false)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

// --- plan cache -------------------------------------------------------------

func TestTemplateKeyNormalization(t *testing.T) {
	a := templateKey("SELECT c FROM sbtest3 WHERE id = 71")
	b := templateKey("SELECT c FROM sbtest12 WHERE id = 9004")
	if a != b {
		t.Fatalf("same template shape got different keys:\n%q\n%q", a, b)
	}
	if want := "SELECT c FROM sbtest? WHERE id = ?"; a != want {
		t.Fatalf("key %q want %q", a, want)
	}
	if templateKey("DELETE FROM sbtest1 WHERE id = 5") == a {
		t.Fatal("different statements collided")
	}
}

func TestPlanCacheHitsAndSharing(t *testing.T) {
	db := testDB(t, nil)
	ex := NewExecutor(db, 1000)
	if err := ex.Load("sbtest", 1000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ex.Exec(fmt.Sprintf("SELECT c FROM sbtest1 WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := ex.PlanCacheStats()
	if misses != 1 {
		t.Fatalf("50 executions of one template: %d misses, want 1", misses)
	}
	if hits != 49 {
		t.Fatalf("hits %d want 49", hits)
	}
	if ex.plans.Len() != 1 {
		t.Fatalf("cached templates %d want 1", ex.plans.Len())
	}
	// A clone shares the warmed cache: its executions are hits immediately.
	clone := ex.Clone()
	if _, err := clone.Exec("SELECT c FROM sbtest99 WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := clone.PlanCacheStats()
	if misses2 != misses {
		t.Fatalf("clone missed on a warmed template: %d -> %d", misses, misses2)
	}
	if hits2 != hits+1 {
		t.Fatalf("clone hit not counted: %d -> %d", hits, hits2)
	}
	// Parse errors are not cached.
	if _, err := ex.Exec("DROP TABLE x"); err == nil {
		t.Fatal("unsupported statement accepted")
	}
	if ex.plans.Len() != 1 {
		t.Fatal("failed statement was cached")
	}
}

// TestPlanCacheConcurrentExecutors runs cloned executors from many
// goroutines against the shared cache (under -race this checks the
// read-mostly locking, and in-place range counts beside in-place updates
// and splitting inserts).
func TestPlanCacheConcurrentExecutors(t *testing.T) {
	db := testDB(t, nil)
	// Rows [0, 500) are loaded; the inserts fill [500, 2100) and split
	// leaves under the range counts of the other executors.
	ex := NewExecutor(db, 2100)
	if err := ex.Load("sbtest", 500); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			exw := ex.Clone()
			for i := 0; i < 200; i++ {
				var sql string
				switch i % 4 {
				case 0:
					sql = fmt.Sprintf("SELECT c FROM sbtest%d WHERE id = %d", g, i)
				case 1:
					sql = fmt.Sprintf("UPDATE sbtest%d SET k = k + 1 WHERE id = %d", g, i)
				case 2:
					sql = fmt.Sprintf("SELECT c FROM sbtest%d WHERE id BETWEEN %d AND %d", g, 500+g*200, 500+g*200+i)
				default:
					sql = fmt.Sprintf("INSERT INTO sbtest%d (id, k, c, pad) VALUES (%d, 1, 2, 3)", g, 500+g*200+i)
				}
				if _, err := exw.Exec(sql); err != nil {
					t.Errorf("%s: %v", sql, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := ex.plans.Len(); n != 4 {
		t.Fatalf("cached templates %d want 4", n)
	}
	if n, err := db.Count("sbtest", 0, 2100); err != nil || n != 500+8*50 {
		t.Fatalf("rows after the inserts: %d, %v; want %d", n, err, 500+8*50)
	}
}

// --- pacer ------------------------------------------------------------------

// TestTokenBucketDeliversRate verifies the accumulator pacer delivers
// rate×duration tokens within 1% for awkward rate/step combinations — the
// previous integer-truncating pacer under-delivered by up to ~50% when the
// per-request interval did not divide the tick.
func TestTokenBucketDeliversRate(t *testing.T) {
	for _, rate := range []float64{800, 4800, 12000, 150000, 333333} {
		for _, step := range []time.Duration{200 * time.Microsecond, 217 * time.Microsecond, 1310 * time.Microsecond} {
			tb := tokenBucket{rate: rate}
			total := 0
			var elapsed time.Duration
			for elapsed = 0; elapsed < time.Second; elapsed += step {
				total += tb.take(step)
			}
			want := rate * elapsed.Seconds()
			if diff := math.Abs(float64(total) - want); diff > want*0.01 {
				t.Errorf("rate %.0f step %v: delivered %d want %.0f (%.2f%% off)",
					rate, step, total, want, diff/want*100)
			}
		}
	}
	// Zero and negative elapsed deliver nothing.
	tb := tokenBucket{rate: 1000}
	if tb.take(0) != 0 || tb.take(-time.Second) != 0 {
		t.Fatal("non-positive elapsed must deliver no tokens")
	}
}
