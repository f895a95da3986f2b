package minidb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dbsim"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Regression tests for the I/O error-path audit: a failed write, sync,
// truncate or rename must surface to the caller, and failures that leave
// in-memory state ahead of (or behind) durable state must poison the
// component so later operations cannot silently build on a broken log or
// pool. Each test pins one audited path using targeted vfs fault injection.

// TestWALWriteErrorSticky: a WAL flush failure must fail the commit AND
// poison the log — after the device "recovers", later appends must still be
// refused, because buffered records were lost and the LSN sequence no
// longer matches what reached the file.
func TestWALWriteErrorSticky(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	w, err := openWAL(fs, "wal.log", WALConfig{BufferBytes: 1 << 16, Policy: FlushEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recPut, 1, 1, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(1); err != nil {
		t.Fatal(err)
	}

	fs.SetErr(vfs.OpWrite, -1)
	if err := w.Append(recPut, 2, 1, 11, []byte("b")); err != nil {
		t.Fatal(err) // buffered, no I/O yet
	}
	if err := w.Commit(2); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("commit during write failure = %v, want ErrInjected", err)
	}

	fs.SetErr(vfs.OpWrite, 0) // device recovers; the log must not
	if err := w.Append(recPut, 3, 1, 12, []byte("c")); err == nil {
		t.Fatal("append after flush failure succeeded; the WAL must stay poisoned")
	}
	if err := w.Commit(3); err == nil {
		t.Fatal("commit after flush failure succeeded; the WAL must stay poisoned")
	}
}

// TestWALSyncErrorSticky: same contract for a failed fsync — the commit
// must not be acknowledged and the log stays poisoned (fsyncgate: a sync
// failure may have dropped the dirty range, so retrying cannot help).
func TestWALSyncErrorSticky(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	w, err := openWAL(fs, "wal.log", WALConfig{BufferBytes: 1 << 16, Policy: FlushEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recPut, 1, 1, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	fs.SetErr(vfs.OpSync, -1)
	if err := w.Commit(1); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("commit during sync failure = %v, want ErrInjected", err)
	}
	fs.SetErr(vfs.OpSync, 0)
	if err := w.Append(recPut, 2, 1, 11, []byte("b")); err == nil {
		t.Fatal("append after sync failure succeeded; the WAL must stay poisoned")
	}
}

// TestPagerWriteSurfacesDoublewriteErrors: every step of the doublewrite
// protocol (slot write, slot sync, home write) must propagate its failure.
func TestPagerWriteSurfacesDoublewriteErrors(t *testing.T) {
	var data [PageSize]byte
	data[0] = nodeLeaf

	for _, tc := range []struct {
		name string
		op   vfs.Op
	}{
		{"write", vfs.OpWrite},
		{"sync", vfs.OpSync},
	} {
		fs := vfs.NewFaultFS(vfs.FaultConfig{})
		pg, err := newPager(fs, "data.mdb", "dblwr.mdb", true)
		if err != nil {
			t.Fatal(err)
		}
		id := pg.allocate()
		fs.SetErr(tc.op, -1)
		if err := pg.write(id, &data); !errors.Is(err, vfs.ErrInjected) {
			t.Errorf("%s failure: pager.write = %v, want ErrInjected", tc.name, err)
		}
		fs.SetErr(tc.op, 0)
		if err := pg.close(); err != nil {
			t.Errorf("%s failure: close: %v", tc.name, err)
		}
	}
}

// TestEvictionWriteErrorPropagates: when fetching a page forces the
// eviction of a dirty victim and the victim's flush fails, the fetch must
// fail — not hand out a page while silently dropping the victim's data.
func TestEvictionWriteErrorPropagates(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	pg, err := newPager(fs, "data.mdb", "dblwr.mdb", false)
	if err != nil {
		t.Fatal(err)
	}
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 8, Instances: 1})

	var ids []PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, pg.allocate())
	}
	for _, id := range ids {
		p, err := pool.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		p.data[0] = nodeLeaf
		pool.Unpin(p, true)
	}

	fs.SetErr(vfs.OpWrite, -1)
	if _, err := pool.Fetch(pg.allocate()); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("fetch over failing eviction = %v, want ErrInjected", err)
	}
	fs.SetErr(vfs.OpWrite, 0)
	if err := pool.FlushAll(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCleanerWriteErrorPoisonsPool: the background cleaner has no caller to
// report to, so its flush failure must be latched and surfaced by the next
// foreground fetch and by FlushAll.
func TestCleanerWriteErrorPoisonsPool(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	pg, err := newPager(fs, "data.mdb", "dblwr.mdb", false)
	if err != nil {
		t.Fatal(err)
	}
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 8, Instances: 1})
	id := pg.allocate()
	p, err := pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.data[0] = nodeLeaf
	pool.Unpin(p, true)

	fs.SetErr(vfs.OpWrite, -1)
	pool.CleanPass(8, 8) // swallows the error into the instance's ioErr
	fs.SetErr(vfs.OpWrite, 0)

	if _, err := pool.Fetch(id); err == nil {
		t.Fatal("fetch after cleaner flush failure succeeded; pool must be poisoned")
	}
	if err := pool.FlushAll(); err == nil {
		t.Fatal("FlushAll after cleaner flush failure succeeded; pool must be poisoned")
	}
}

// TestCloseSurfacesCatalogRenameError: the catalog save's atomic rename is
// the last step of Close — its failure must be reported, and because the
// WAL is only reset after a successful checkpoint, no committed data may be
// lost: a reopen from the crash image must still recover everything.
func TestCloseSurfacesCatalogRenameError(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	cfg := crashConfig(fs)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("t", 1, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	fs.SetErr(vfs.OpRename, -1)
	if err := db.Close(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("close during rename failure = %v, want ErrInjected", err)
	}

	img := fs.CrashImage(fs.Ops(), vfs.DropUnsynced, 0)
	db2, err := Open(crashConfig(vfs.NewFaultFSFromImage(img, vfs.FaultConfig{})))
	if err != nil {
		t.Fatalf("reopen after failed close: %v", err)
	}
	defer db2.Close()
	v, ok, err := db2.Get("t", 1)
	if err != nil || !ok || string(v) != "keep" {
		t.Fatalf("committed row lost across failed close: %q %v %v", v, ok, err)
	}
}

// TestWALTruncateErrorSurfaces: recovery's torn-tail truncation must
// propagate an injected truncate failure instead of replaying a log it
// could not repair.
func TestWALTruncateErrorSurfaces(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	w, err := openWAL(fs, "wal.log", WALConfig{BufferBytes: 1 << 16, Policy: FlushEachCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recPut, 1, 1, 10, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(1); err != nil {
		t.Fatal(err)
	}
	fs.SetErr(vfs.OpTruncate, -1)
	if err := w.Reset(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("reset during truncate failure = %v, want ErrInjected", err)
	}
}

// TestMeasureSurfacesCloseError: a measurement whose engine fails its final
// checkpoint describes a database that did not survive shutdown. measure
// must return the Close error (it used to drop it behind a defer), and
// Measure must map it to the failure sentinel like any other replay error.
func TestMeasureSurfacesCloseError(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	ev := NewEvaluator("eval", realSpace(), dbsim.IOPS, workload.Sysbench(10).WithRequestRate(800), 1)
	ev.Rows = 100
	ev.Deterministic = true
	ev.fs = fs
	if _, err := ev.measure("eval/clean", ev.DefaultNative()); err != nil {
		t.Fatalf("measure without faults: %v", err)
	}

	// A one-table measurement renames the catalog into place three times:
	// CreateTable, Load's checkpoint, Close. Fail the third.
	fs.SetErr(vfs.OpRename, 3)
	_, err := ev.measure("eval/faulted", ev.DefaultNative())
	if !errors.Is(err, vfs.ErrInjected) || !strings.Contains(err.Error(), "closing after replay") {
		t.Fatalf("measure over a failing Close = %v, want the injected error from the close path", err)
	}

	fs.SetErr(vfs.OpRename, 3)
	if m := ev.Measure(ev.DefaultNative()); m.TPS != 1 || m.LatencyP99Ms != 1e6 || m.CPUUtilPct != 100 {
		t.Fatalf("Measure over a failing Close = %+v, want the failure sentinel", m)
	}
}
