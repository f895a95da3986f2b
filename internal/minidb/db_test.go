package minidb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/knobs"
	"repro/internal/workload"
)

func testDB(t *testing.T, mutate func(*Config)) *DB {
	t.Helper()
	cfg := DefaultTestConfig(t.TempDir())
	if mutate != nil {
		mutate(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDBCRUD(t *testing.T) {
	db := testDB(t, nil)
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if _, _, err := db.Get("missing", 1); err == nil {
		t.Fatal("missing table accepted")
	}

	if err := db.Put("t", 42, []byte("answer")); err != nil {
		t.Fatal(err)
	}
	v, found, err := db.Get("t", 42)
	if err != nil || !found || string(v) != "answer" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
	for k := int64(0); k < 100; k++ {
		if err := db.Put("t", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	db.Scan("t", 10, 19, func(int64, []byte) bool { n++; return true })
	if n != 10 {
		t.Fatalf("scan saw %d", n)
	}
	ok, err := db.Delete("t", 42)
	if err != nil || !ok {
		t.Fatal("delete")
	}
	st := db.Stats()
	if st.Commits == 0 || st.Statements == 0 || st.WALSyncs == 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
}

func TestDBPersistenceAcrossCleanReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultTestConfig(dir)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 500; k++ {
		if err := db.Put("t", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := int64(0); k < 500; k += 53 {
		v, found, err := db2.Get("t", k)
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after reopen: %q %v %v", k, v, found, err)
		}
	}
}

func TestDBCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultTestConfig(dir)
	cfg.WAL.Policy = FlushEachCommit
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		if err := db.Put("t", k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	db.Delete("t", 7)
	// Crash: no Close, no checkpoint. The WAL has everything.
	db.wal.file.Sync()

	db2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for k := int64(0); k < 50; k++ {
		v, found, err := db2.Get("t", k)
		if k == 7 {
			if found {
				t.Fatal("deleted key resurrected")
			}
			continue
		}
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("key %d after crash recovery: %q %v %v", k, v, found, err)
		}
	}
}

func TestDBTableCacheEviction(t *testing.T) {
	db := testDB(t, func(c *Config) { c.TableOpenCache = 2 })
	for i := 0; i < 5; i++ {
		if err := db.CreateTable(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
		if err := db.Put(fmt.Sprintf("t%d", i), 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Round-robin access across 5 tables with a 2-entry cache: reopens.
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			if _, _, err := db.Get(fmt.Sprintf("t%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.TableOpens == 0 {
		t.Fatal("small table cache should force reopens")
	}

	// A large cache avoids reopens for the same pattern.
	db2 := testDB(t, func(c *Config) { c.TableOpenCache = 64 })
	for i := 0; i < 5; i++ {
		db2.CreateTable(fmt.Sprintf("t%d", i))
		db2.Put(fmt.Sprintf("t%d", i), 1, []byte("x"))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 5; i++ {
			db2.Get(fmt.Sprintf("t%d", i), 1)
		}
	}
	if db2.Stats().TableOpens > 0 {
		t.Fatal("large cache should not reopen")
	}
}

func TestDBAdmissionControl(t *testing.T) {
	db := testDB(t, func(c *Config) { c.ThreadConcurrency = 2 })
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				db.Put("t", int64(g*100+i), []byte("v"))
			}
		}(g)
	}
	wg.Wait()
	if db.Stats().Commits != 400 {
		t.Fatalf("commits %d", db.Stats().Commits)
	}
}

func TestDBConcurrentMixedWorkload(t *testing.T) {
	db := testDB(t, func(c *Config) {
		c.BufferPoolBytes = 16 * PageSize // force real eviction traffic
	})
	if err := db.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				k := int64(r.Intn(4000))
				switch r.Intn(4) {
				case 0:
					if err := db.Put("t", k, rowPayload(k)); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := db.Delete("t", k); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, _, err := db.Get("t", k); err != nil {
						errs <- err
						return
					}
				default:
					// A copying scan and an in-place count of the same
					// range, beside in-place writers and splits.
					if err := db.Scan("t", k, k+10, func(int64, []byte) bool { return true }); err != nil {
						errs <- err
						return
					}
					if n, err := db.Count("t", k, k+10); err != nil || n > 11 {
						errs <- fmt.Errorf("Count[%d,%d] = %d, %v", k, k+10, n, err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Evictions == 0 {
		t.Fatal("small pool should evict under this workload")
	}
}

func TestConfigFromKnobs(t *testing.T) {
	space := knobs.MySQL57Catalogue()
	native := space.Defaults()
	native[space.Index("innodb_buffer_pool_size")] = 1 << 24
	native[space.Index("innodb_buffer_pool_instances")] = 3
	native[space.Index("innodb_thread_concurrency")] = 7
	native[space.Index("innodb_flush_log_at_trx_commit")] = 2
	native[space.Index("table_open_cache")] = 11
	cfg := ConfigFromKnobs(t.TempDir(), space, native)
	if cfg.BufferPoolBytes != 1<<24 || cfg.ThreadConcurrency != 7 ||
		cfg.WAL.Policy != WriteEachCommit || cfg.TableOpenCache != 11 {
		t.Fatalf("knob mapping wrong: %+v", cfg)
	}
	if cfg.BufferPoolInstances != 3 {
		t.Fatalf("buffer pool instances not mapped: %+v", cfg)
	}
	// The knob is live end to end: the opened pool is actually split.
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.pool.Instances() != 3 {
		t.Fatalf("pool instances %d, want 3", db.pool.Instances())
	}
	db.Close()
	// A space without engine knobs keeps defaults.
	sub := space.Subset("innodb_purge_threads")
	cfg = ConfigFromKnobs(t.TempDir(), sub, []float64{4})
	if cfg.TableOpenCache != 64 {
		t.Fatal("defaults not preserved")
	}
}

func TestExecutorStatements(t *testing.T) {
	db := testDB(t, nil)
	ex := NewExecutor(db, 1000)
	if err := ex.Load("sbtest", 1000); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		sql       string
		wantRead  bool
		wantWrite bool
	}{
		{"SELECT c FROM sbtest7 WHERE id = 55", true, false},
		{"SELECT c FROM sbtest3 WHERE id BETWEEN 100 AND 150", true, false},
		{"SELECT SUM(k) FROM sbtest2 WHERE id BETWEEN 10 AND 20", true, false},
		{"SELECT * FROM sbtest1 WHERE uid IN (SELECT f2 FROM follows WHERE f1 = 12) ORDER BY id DESC LIMIT 20", true, false},
		{"UPDATE sbtest4 SET k = k + 1 WHERE id = 77", false, true},
		{"INSERT INTO sbtest5 (id, k, c, pad) VALUES (2001, 1, 2, 3)", false, true},
		{"DELETE FROM sbtest6 WHERE id = 55", false, true},
	}
	for _, c := range cases {
		rt, err := ex.Exec(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if c.wantRead && rt.Read == 0 {
			t.Errorf("%s: no rows read", c.sql)
		}
		if c.wantWrite && rt.Written == 0 {
			t.Errorf("%s: no rows written", c.sql)
		}
	}
	if _, err := ex.Exec("DROP TABLE x"); err == nil {
		t.Fatal("unsupported statement accepted")
	}
	if _, err := ex.Exec(""); err == nil {
		t.Fatal("empty statement accepted")
	}
}

func TestExecutorRunsGeneratedWorkloads(t *testing.T) {
	db := testDB(t, nil)
	ex := NewExecutor(db, 2000)
	for _, w := range workload.Five() {
		r := rand.New(rand.NewSource(1))
		for _, stmt := range w.Generate(150, r) {
			if _, err := ex.Exec(stmt); err != nil {
				t.Fatalf("%s: %q: %v", w.Name, stmt, err)
			}
		}
	}
	if db.Stats().Statements == 0 {
		t.Fatal("no statements executed")
	}
}

func TestExecutorShardedTablesShareData(t *testing.T) {
	db := testDB(t, nil)
	ex := NewExecutor(db, 100)
	if err := ex.Load("sbtest", 100); err != nil {
		t.Fatal(err)
	}
	// Any shard suffix should hit the same loaded table.
	for _, tbl := range []string{"sbtest1", "sbtest42", "sbtest150"} {
		rt, err := ex.Exec(fmt.Sprintf("SELECT c FROM %s WHERE id = 5", tbl))
		if err != nil || rt.Read != 1 {
			t.Fatalf("%s: %+v %v", tbl, rt, err)
		}
	}
	if !strings.Contains(fmt.Sprint(db.Stats()), " ") {
		t.Fatal("stats formatting sanity")
	}
}
