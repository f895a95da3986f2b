package minidb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/rng"
	"repro/internal/vfs"
)

// The crash-consistency harness.
//
// A scripted single-goroutine workload (bulk load with splits and a
// checkpoint, autocommit puts/deletes, multi-statement transactions both
// committed and rolled back, a clean shutdown) runs ONCE against a
// recording vfs.FaultFS. The durable state after dying at syscall boundary
// k is a pure function of the recorded trace prefix and the torn-write
// coin flips, so the harness then enumerates EVERY boundary — for each one
// it materializes the crash image (both fault models: unsynced data
// dropped, and unsynced writes torn at sector granularity), recovers, and
// asserts the oracle:
//
//   - every operation acknowledged before the crash is fully present
//     (FlushEachCommit: acknowledgement implies a durable commit record);
//   - the single in-flight operation is all-or-nothing;
//   - nothing else is visible (no partially applied or rolled-back
//     transaction survives);
//   - the B-tree validates structurally and no page is doubly reachable
//     (CheckConsistency);
//   - the recovered engine accepts new writes and shuts down cleanly.
//
// Every failure reproduces from two env vars:
//
//	MINIDB_CRASH_SEED=<n>   workload + torn-write seed (default 1)
//	MINIDB_CRASH_POINT=<k>  verify only boundary k
type crashWrite struct {
	key int64
	val []byte // nil with del=true removes the key
	del bool
}

type crashStep struct {
	start, end int64 // trace op indices (start, end]
	kind       string
	writes     []crashWrite // folded into the oracle only if the step committed
	committed  bool
	relaxed    bool // bulk load: unlogged writes, any prefix-consistent subset may survive a mid-step crash
}

const crashTable = "kv"

// crashWorkload runs the scripted workload on fs and returns the oracle
// steps. It must stay single-goroutine and wall-clock-free so the trace is
// a deterministic function of seed.
func crashWorkload(t *testing.T, fs *vfs.FaultFS, seed int64) []crashStep {
	t.Helper()
	var steps []crashStep
	mark := func(kind string, start int64, committed, relaxed bool, writes []crashWrite) {
		steps = append(steps, crashStep{
			start: start, end: fs.Ops(),
			kind: kind, writes: writes, committed: committed, relaxed: relaxed,
		})
	}

	db, err := Open(crashConfig(fs))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Phase 1: bulk load. Forces leaf splits and root growth through the
	// tiny pool, ends in a checkpoint (FlushAll + catalog save + WAL reset).
	const loaded = 500
	start := fs.Ops()
	ex := NewExecutor(db, 16)
	if err := ex.Load(crashTable, loaded); err != nil {
		t.Fatalf("load: %v", err)
	}
	var loadWrites []crashWrite
	for k := int64(0); k < loaded; k++ {
		loadWrites = append(loadWrites, crashWrite{key: k, val: rowPayload(k)})
	}
	mark("load", start, true, true, loadWrites)

	// Phase 2: logged traffic. Keys beyond the loaded range keep splitting
	// pages; overwrites and deletes churn existing leaves; reads force
	// evictions (and therefore flush-barrier syncs) through the 12-frame
	// pool.
	r := rng.Derive(seed, "crash-workload")
	val := func(tag int64) []byte {
		v := make([]byte, 40+r.Intn(120))
		for i := range v {
			v[i] = byte('A' + (tag+int64(i))%23)
		}
		return v
	}
	for i := 0; i < 90; i++ {
		start := fs.Ops()
		switch op := r.Intn(10); {
		case op < 4: // autocommit put
			k := int64(r.Intn(900))
			v := val(k)
			if err := db.Put(crashTable, k, v); err != nil {
				t.Fatalf("put %d: %v", k, err)
			}
			mark("put", start, true, false, []crashWrite{{key: k, val: v}})
		case op < 6: // autocommit delete
			k := int64(r.Intn(900))
			if _, err := db.Delete(crashTable, k); err != nil {
				t.Fatalf("delete %d: %v", k, err)
			}
			mark("delete", start, true, false, []crashWrite{{key: k, del: true}})
		case op < 8: // committed multi-statement transaction
			n := 2 + r.Intn(3)
			var ws []crashWrite
			err := db.Txn(func(tx *Tx) error {
				for j := 0; j < n; j++ {
					k := int64(r.Intn(900))
					if r.Intn(4) == 0 {
						if _, err := tx.Delete(crashTable, k); err != nil {
							return err
						}
						ws = append(ws, crashWrite{key: k, del: true})
					} else {
						v := val(k + int64(j))
						if err := tx.Put(crashTable, k, v); err != nil {
							return err
						}
						ws = append(ws, crashWrite{key: k, val: v})
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("txn: %v", err)
			}
			mark("txn", start, true, false, ws)
		case op < 9: // rolled-back transaction: must never surface
			sentinel := errors.New("scripted rollback")
			err := db.Txn(func(tx *Tx) error {
				for j := 0; j < 2+r.Intn(2); j++ {
					k := int64(r.Intn(900))
					if err := tx.Put(crashTable, k, val(k+7)); err != nil {
						return err
					}
				}
				return sentinel
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("rollback txn: %v", err)
			}
			mark("rollback", start, false, false, nil)
		default: // reads: cache pressure, no oracle effect
			for j := 0; j < 8; j++ {
				if _, _, err := db.Get(crashTable, int64(r.Intn(900))); err != nil {
					t.Fatalf("get: %v", err)
				}
			}
			mark("read", start, true, false, nil)
		}
	}

	start = fs.Ops()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	mark("close", start, true, false, nil)
	return steps
}

func crashConfig(fs vfs.FS) Config {
	return Config{
		Dir:                 "crashdb",
		FS:                  fs,
		BufferPoolBytes:     12 * PageSize, // force eviction/steal of dirty pages
		BufferPoolInstances: 1,
		OldBlocksPct:        37,
		LRUScanDepth:        8,
		IOCapacity:          100,
		CleanerInterval:     0, // no background goroutines: deterministic trace
		WAL:                 WALConfig{BufferBytes: 4096, Policy: FlushEachCommit},
		SyncSpinLoops:       4,
		SpinWaitDelay:       2,
		TableOpenCache:      4,
	}
}

// oracleAt folds the steps into the expected state for a crash at boundary
// k: the fully folded base (steps acknowledged before k) and the optional
// in-flight step.
func oracleAt(steps []crashStep, k int64) (base map[int64][]byte, inflight *crashStep) {
	base = make(map[int64][]byte)
	fold := func(ws []crashWrite) {
		for _, w := range ws {
			if w.del {
				delete(base, w.key)
			} else {
				base[w.key] = w.val
			}
		}
	}
	for i := range steps {
		s := &steps[i]
		if s.end <= k {
			if s.committed {
				fold(s.writes)
			}
			continue
		}
		if s.start < k && s.committed && len(s.writes) > 0 {
			inflight = s
		}
		break
	}
	return base, inflight
}

// verifyCrashPoint materializes the crash image at boundary k, recovers,
// and asserts every invariant. Returns a descriptive error instead of
// failing directly so the caller can attach the reproduction env vars.
func verifyCrashPoint(fs *vfs.FaultFS, steps []crashStep, k int64, mode vfs.CrashMode, seed int64, probe bool) error {
	img := fs.CrashImage(k, mode, seed)
	rfs := vfs.NewFaultFSFromImage(img, vfs.FaultConfig{})
	db, err := Open(crashConfig(rfs))
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	defer db.Close()
	if err := db.CheckConsistency(); err != nil {
		return fmt.Errorf("post-recovery consistency: %w", err)
	}

	got := make(map[int64][]byte)
	if _, ok := db.catalog[crashTable]; ok {
		if err := db.Scan(crashTable, -1<<62, 1<<62, func(key int64, val []byte) bool {
			got[key] = append([]byte(nil), val...)
			return true
		}); err != nil {
			return fmt.Errorf("post-recovery scan: %w", err)
		}
	}

	base, inflight := oracleAt(steps, k)
	if err := matchOracle(got, base, inflight); err != nil {
		return err
	}

	if probe {
		// The recovered engine must accept new traffic.
		const probeKey = int64(1) << 40
		if err := db.Put(crashTable, probeKey, []byte("probe")); err != nil {
			if _, ok := db.catalog[crashTable]; !ok {
				return nil // crashed before the table existed: nothing to probe
			}
			return fmt.Errorf("post-recovery put: %w", err)
		}
		v, okv, err := db.Get(crashTable, probeKey)
		if err != nil || !okv || string(v) != "probe" {
			return fmt.Errorf("post-recovery get: %q %v %v", v, okv, err)
		}
		if _, err := db.Delete(crashTable, probeKey); err != nil {
			return fmt.Errorf("post-recovery delete: %w", err)
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("post-recovery close: %w", err)
		}
		// Reopen once more: the recovered-and-written state recovers too.
		db2, err := Open(crashConfig(rfs))
		if err != nil {
			return fmt.Errorf("second open: %w", err)
		}
		if err := db2.CheckConsistency(); err != nil {
			db2.Close()
			return fmt.Errorf("second-open consistency: %w", err)
		}
		return db2.Close()
	}
	return nil
}

// matchOracle checks got against base plus the optional in-flight step.
func matchOracle(got, base map[int64][]byte, inflight *crashStep) error {
	if inflight == nil {
		return mapsEqual(got, base)
	}
	if inflight.relaxed {
		// Bulk load: unlogged writes flushed by eviction may survive in any
		// subset, but a surviving key must carry exactly its loaded value
		// and nothing outside the load may appear.
		allowed := make(map[int64][]byte, len(base))
		for k, v := range base {
			allowed[k] = v
		}
		for _, w := range inflight.writes {
			if !w.del {
				allowed[w.key] = w.val
			}
		}
		for k, v := range got {
			want, ok := allowed[k]
			if !ok {
				return fmt.Errorf("unexpected key %d during in-flight %s", k, inflight.kind)
			}
			if !bytes.Equal(v, want) {
				return fmt.Errorf("key %d = %q, want %q (in-flight %s)", k, v, want, inflight.kind)
			}
		}
		for k, v := range base {
			if gv, ok := got[k]; !ok || !bytes.Equal(gv, v) {
				return fmt.Errorf("acknowledged key %d lost during in-flight %s", k, inflight.kind)
			}
		}
		return nil
	}
	// Logged in-flight step: strictly all-or-nothing.
	with := make(map[int64][]byte, len(base))
	for k, v := range base {
		with[k] = v
	}
	for _, w := range inflight.writes {
		if w.del {
			delete(with, w.key)
		} else {
			with[w.key] = w.val
		}
	}
	errWithout := mapsEqual(got, base)
	if errWithout == nil {
		return nil
	}
	if errWith := mapsEqual(got, with); errWith == nil {
		return nil
	}
	return fmt.Errorf("in-flight %s neither fully absent (%v) nor fully applied", inflight.kind, errWithout)
}

func mapsEqual(got, want map[int64][]byte) error {
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			return fmt.Errorf("key %d missing (want %q)", k, v)
		}
		if !bytes.Equal(gv, v) {
			return fmt.Errorf("key %d = %q, want %q", k, gv, v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("key %d present, want absent", k)
		}
	}
	return nil
}

func crashSeed(t *testing.T) int64 {
	seed := int64(1)
	if s := os.Getenv("MINIDB_CRASH_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MINIDB_CRASH_SEED=%q: %v", s, err)
		}
		seed = v
	}
	return seed
}

// TestCrashConsistencyExhaustive is the tentpole gate: every syscall
// boundary of the recorded workload, under both fault models.
func TestCrashConsistencyExhaustive(t *testing.T) {
	seed := crashSeed(t)
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	steps := crashWorkload(t, fs, seed)
	total := fs.Ops()
	t.Logf("trace: %d syscall boundaries, %d oracle steps, seed %d (reproduce one: MINIDB_CRASH_SEED=%d MINIDB_CRASH_POINT=<k>)",
		total, len(steps), seed, seed)
	if total < 300 {
		t.Fatalf("workload recorded only %d mutating syscalls — too small to call exhaustive", total)
	}

	if s := os.Getenv("MINIDB_CRASH_POINT"); s != "" {
		k, err := strconv.ParseInt(s, 10, 64)
		if err != nil || k < 0 || k > total {
			t.Fatalf("MINIDB_CRASH_POINT=%q (trace has %d ops): %v", s, total, err)
		}
		for i, s := range steps {
			t.Logf("step %2d %-8s [%4d,%4d] committed=%v writes=%d", i, s.kind, s.start, s.end, s.committed, len(s.writes))
		}
		for _, mode := range []vfs.CrashMode{vfs.DropUnsynced, vfs.TornWrites} {
			if err := verifyCrashPoint(fs, steps, k, mode, rng.Derive(seed, "torn").Int63()+k, true); err != nil {
				t.Errorf("boundary %d mode %d: %v", k, mode, err)
			}
		}
		return
	}

	// Probing (write + reopen after recovery) roughly triples a point's
	// cost; stride it. -short strides the boundaries themselves.
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	tornSeeds := rng.Derive(seed, "torn")
	for k := int64(0); k <= total; k += stride {
		probe := k%13 == 0
		if err := verifyCrashPoint(fs, steps, k, vfs.DropUnsynced, 0, probe); err != nil {
			t.Fatalf("boundary %d/%d (DropUnsynced): %v\nreproduce: MINIDB_CRASH_SEED=%d MINIDB_CRASH_POINT=%d", k, total, err, seed, k)
		}
		if err := verifyCrashPoint(fs, steps, k, vfs.TornWrites, tornSeeds.Int63()+k, false); err != nil {
			t.Fatalf("boundary %d/%d (TornWrites): %v\nreproduce: MINIDB_CRASH_SEED=%d MINIDB_CRASH_POINT=%d", k, total, err, seed, k)
		}
	}
}

// TestCrashDuringRecovery crashes a second time while recovery itself is
// running (including its checkpoint), then recovers again — recovery must
// be idempotent because its own appended records land in the same log.
func TestCrashDuringRecovery(t *testing.T) {
	seed := crashSeed(t)
	fs := vfs.NewFaultFS(vfs.FaultConfig{})
	steps := crashWorkload(t, fs, seed)
	total := fs.Ops()

	primaryStride := int64(23)
	if testing.Short() {
		primaryStride = 101
	}
	for k := int64(1); k <= total; k += primaryStride {
		img := fs.CrashImage(k, vfs.TornWrites, seed+k)
		// Measure the recovery trace length by letting one recovery run.
		mfs := vfs.NewFaultFSFromImage(img, vfs.FaultConfig{})
		db, err := Open(crashConfig(mfs))
		if err != nil {
			t.Fatalf("boundary %d: recovery open: %v", k, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("boundary %d: close: %v", k, err)
		}
		recOps := mfs.Ops()
		for j := int64(1); j < recOps; j += 1 + recOps/5 {
			// Crash recovery at op j, then recover from the wreckage.
			cfs := vfs.NewFaultFSFromImage(img, vfs.FaultConfig{CrashAfterOps: j})
			if cdb, err := Open(crashConfig(cfs)); err == nil {
				// Recovery finished before the scheduled crash (j landed in
				// the close path we never reach); fine.
				cdb.Close()
			}
			img2 := cfs.CrashImage(cfs.Ops(), vfs.TornWrites, seed^(k<<16)^j)
			rfs := vfs.NewFaultFSFromImage(img2, vfs.FaultConfig{})
			rdb, err := Open(crashConfig(rfs))
			if err != nil {
				t.Fatalf("boundary %d, recovery-crash %d: second recovery: %v\nreproduce: MINIDB_CRASH_SEED=%d", k, j, err, seed)
			}
			if err := rdb.CheckConsistency(); err != nil {
				rdb.Close()
				t.Fatalf("boundary %d, recovery-crash %d: %v\nreproduce: MINIDB_CRASH_SEED=%d", k, j, err, seed)
			}
			got := make(map[int64][]byte)
			if _, ok := rdb.catalog[crashTable]; ok {
				if err := rdb.Scan(crashTable, -1<<62, 1<<62, func(key int64, val []byte) bool {
					got[key] = append([]byte(nil), val...)
					return true
				}); err != nil {
					rdb.Close()
					t.Fatalf("boundary %d, recovery-crash %d: scan: %v", k, j, err)
				}
			}
			base, inflight := oracleAt(steps, k)
			if err := matchOracle(got, base, inflight); err != nil {
				rdb.Close()
				t.Fatalf("boundary %d, recovery-crash %d: %v\nreproduce: MINIDB_CRASH_SEED=%d", k, j, err, seed)
			}
			if err := rdb.Close(); err != nil {
				t.Fatalf("boundary %d, recovery-crash %d: close: %v", k, j, err)
			}
		}
	}
}

// TestCrashTraceDeterministic: the harness's promise that a failure
// reproduces from MINIDB_CRASH_SEED / MINIDB_CRASH_POINT holds only if the
// recorded trace is a function of the seed. Two recordings must agree on
// the durable image at every boundary under both crash modes — which they
// did not while checkpoints flushed dirty pages in Go's map order.
func TestCrashTraceDeterministic(t *testing.T) {
	seed := crashSeed(t)
	a := vfs.NewFaultFS(vfs.FaultConfig{})
	b := vfs.NewFaultFS(vfs.FaultConfig{})
	crashWorkload(t, a, seed)
	crashWorkload(t, b, seed)
	total := a.Ops()
	if b.Ops() != total {
		t.Fatalf("two recordings of seed %d: %d vs %d syscall boundaries", seed, total, b.Ops())
	}
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for k := int64(0); k <= total; k += stride {
		for _, mode := range []vfs.CrashMode{vfs.DropUnsynced, vfs.TornWrites} {
			ia, ib := a.CrashImage(k, mode, seed+k), b.CrashImage(k, mode, seed+k)
			if len(ia) != len(ib) {
				t.Fatalf("boundary %d mode %d: %d vs %d files", k, mode, len(ia), len(ib))
			}
			for name, da := range ia {
				if db, ok := ib[name]; !ok || !bytes.Equal(da, db) {
					t.Fatalf("boundary %d/%d mode %d: durable image of %s differs between two recordings of seed %d", k, total, mode, name, seed)
				}
			}
		}
	}
}
