package minidb

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/vfs"
)

// FuzzExecutorStatements feeds arbitrary statement bytes through the SQL
// subset executor: unsupported or malformed statements must return errors,
// never panic or corrupt the engine. The seed corpus covers every cached
// plan template (point/range/short/window selects, insert, update, delete)
// plus the normalizer's edge shapes, so mutations start from each planOp.
func FuzzExecutorStatements(f *testing.F) {
	f.Add("SELECT c FROM sbtest1 WHERE id = 42")
	f.Add("INSERT INTO t (a) VALUES (1)")
	f.Add("UPDATE t SET a = 1 WHERE id = 2")
	f.Add("DELETE FROM t WHERE id = 3")
	f.Add("SELECT FROM")
	f.Add("select * from x where y between 1 and")
	f.Add("DROP TABLE t")
	f.Add("")
	f.Add("SELECT * FROM a JOIN b ON a.id = b.id LIMIT 5")
	// One seed per plan-cache template shape (planStatement's classification).
	f.Add("SELECT c FROM sbtest1 WHERE id BETWEEN 100 AND 199")         // planSelectRange
	f.Add("SELECT c FROM sbtest1 WHERE id BETWEEN 199 AND 100")         // reversed bounds
	f.Add("SELECT SUM(k) FROM sbtest1 WHERE id BETWEEN 1 AND 1000000")  // range clamp
	f.Add("SELECT c FROM sbtest1 ORDER BY c LIMIT 10")                  // planSelectShort
	f.Add("SELECT c FROM sbtest2 WHERE id IN (SELECT id FROM sbtest1)") // subquery short
	f.Add("SELECT COUNT(*) FROM sbtest1")                               // planSelectWindow (no literals)
	f.Add("INSERT INTO sbtest1 (id, k, c, pad) VALUES (4242, 1, 'x', 'y')")
	f.Add("UPDATE sbtest1 SET k = k + 1 WHERE id = 77")
	f.Add("UPDATE sbtest99 SET c = 'abc' WHERE id = 12") // digit-suffixed table
	f.Add("DELETE FROM sbtest1 WHERE id = 4242")
	// Template-key normalization edges: digit runs, negatives, huge runs.
	f.Add("SELECT c FROM sbtest1 WHERE id = -9223372036854775808")
	f.Add("SELECT c FROM sbtest1 WHERE id = 99999999999999999999999999")
	f.Add("SELECT c FROM t WHERE a = 1 AND b = 2 AND c = 3 AND d = 4")
	f.Add("  SELECT\tc\nFROM sbtest1 WHERE id = 1;")
	f.Add("insert into sbtest1 values (0)")
	f.Add("INSERT INTO")
	f.Add("UPDATE 42 SET")
	f.Add("DELETE FROM WHERE")
	f.Add("SELECT c FROM sbtest1 WHERE id = \x00\xff")

	dir := f.TempDir()
	db, err := Open(DefaultTestConfig(dir))
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	ex := NewExecutor(db, 100)
	if err := ex.Load("sbtest", 100); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, sql string) {
		// Must not panic; errors are fine.
		_, _ = ex.Exec(sql)
		// The engine stays usable afterwards.
		if _, _, err := db.Get("sbtest", 1); err != nil {
			t.Fatalf("engine corrupted after %q: %v", sql, err)
		}
	})
}

// FuzzBTreeOperations drives the B+tree with arbitrary key/value bytes.
func FuzzBTreeOperations(f *testing.F) {
	f.Add(int64(0), []byte("v"))
	f.Add(int64(-1), []byte{})
	f.Add(int64(1<<62), []byte("large-key"))
	f.Add(int64(-1)<<63, []byte("min-key"))
	f.Add(int64(1<<63-1), []byte("max-key"))
	f.Add(int64(42), make([]byte, MaxValueLen))
	f.Add(int64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})

	dir := f.TempDir()
	pg, err := newPager(vfs.OS(), dir+"/data.mdb", dir+"/dblwr.mdb", true)
	if err != nil {
		f.Fatal(err)
	}
	defer pg.close()
	pool := newBufferPool(pg, BufferPoolConfig{Frames: 64})
	defer pool.Close()
	tree, err := newBTree(pool, pg)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, key int64, val []byte) {
		if len(val) > MaxValueLen {
			val = val[:MaxValueLen]
		}
		if err := tree.Put(key, val); err != nil {
			t.Fatal(err)
		}
		got, found, err := tree.Get(key)
		if err != nil || !found {
			t.Fatalf("lost key %d: %v", key, err)
		}
		if string(got) != string(val) {
			t.Fatalf("value mismatch for %d", key)
		}
	})
}

// fuzzWALStream builds a syntactically valid WAL byte stream for the replay
// fuzzer's seed corpus.
func fuzzWALStream(entries []WALEntry) []byte {
	var out []byte
	for _, e := range entries {
		body := make([]byte, 0, 64)
		body = append(body, e.Kind)
		body = binary.LittleEndian.AppendUint32(body, e.Txn)
		body = binary.LittleEndian.AppendUint32(body, e.Table)
		body = binary.LittleEndian.AppendUint64(body, uint64(e.Key))
		body = binary.LittleEndian.AppendUint16(body, uint16(len(e.Val)))
		body = append(body, e.Val...)
		if e.PrevExisted {
			body = append(body, 1)
		} else {
			body = append(body, 0)
		}
		body = binary.LittleEndian.AppendUint16(body, uint16(len(e.Prev)))
		body = append(body, e.Prev...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
		out = append(out, body...)
	}
	return out
}

// FuzzWALReplay hands arbitrary bytes to the WAL parser and then to full
// database recovery (the bytes become wal.log in an otherwise empty crash
// image). Corrupt logs of any shape must be rejected or truncated with an
// error — recovery must never panic, and whatever state it accepts must
// pass the structural consistency check.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(fuzzWALStream([]WALEntry{
		{Kind: recPut, Txn: 1, Table: 1, Key: 10, Val: []byte("hello")},
		{Kind: recCommit, Txn: 1},
	}))
	f.Add(fuzzWALStream([]WALEntry{
		{Kind: recPut, Txn: 1, Table: 1, Key: 10, Val: []byte("old"), PrevExisted: true, Prev: []byte("older")},
		{Kind: recDelete, Txn: 2, Table: 1, Key: 11, PrevExisted: true, Prev: []byte("gone")},
		{Kind: recCommit, Txn: 2},
	}))
	// A page-image record (val must be exactly PageSize at parse time).
	img := make([]byte, PageSize)
	img[0] = nodeLeaf
	f.Add(fuzzWALStream([]WALEntry{
		{Kind: recPageImage, Txn: 3, Table: 0, Key: 1, Val: img},
		{Kind: recRoot, Txn: 3, Table: 1, Key: 1},
		{Kind: recCommit, Txn: 3},
	}))
	// Torn tail: valid record followed by a truncated one.
	valid := fuzzWALStream([]WALEntry{{Kind: recPut, Txn: 1, Table: 1, Key: 5, Val: []byte("v")}, {Kind: recCommit, Txn: 1}})
	f.Add(append(append([]byte{}, valid...), valid[:7]...))
	// Bad CRC on the second record.
	corrupt := append([]byte{}, valid...)
	if len(corrupt) > 20 {
		corrupt[len(corrupt)-1] ^= 0x40
	}
	f.Add(corrupt)
	// Absurd length prefix.
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xfffffff0))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The parser must accept any byte string without panicking and
		// report a valid prefix no longer than the input.
		p := parseWAL(data)
		if p.validLen < 0 || p.validLen > int64(len(data)) {
			t.Fatalf("parseWAL validLen %d out of range [0,%d]", p.validLen, len(data))
		}

		// Full recovery over the same bytes: Open either fails cleanly or
		// yields a structurally consistent database.
		fs := vfs.NewFaultFSFromImage(map[string][]byte{"crashdb/wal.log": data}, vfs.FaultConfig{})
		db, err := Open(crashConfig(fs))
		if err != nil {
			return
		}
		if err := db.CheckConsistency(); err != nil {
			t.Fatalf("recovery accepted inconsistent state: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
	})
}

// leafWellFormed is the reference definition of the page shape the in-place
// kernels accept, phrased over the decoded path: every entry the header
// claims fits the page, and keys ascend strictly.
func leafWellFormed(data *[PageSize]byte) bool {
	entries := readLeaf(data)
	if len(entries) != leafCount(data) {
		return false
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].key <= entries[i-1].key {
			return false
		}
	}
	return true
}

// checkLeafKernels interprets prog as put/update/delete/scan operations
// (three bytes each: opcode, key, value length or range width) and runs them
// over two copies of one page: the in-place kernels, falling back the way
// BTree does, and the readLeaf/writeLeaf reference. After every operation
// the two pages must hold identical bytes and have reported identical
// fit/found/visit/count results. garbage, when non-empty, is the initial page
// image (type byte forced to leaf, as the kernels' callers guarantee). Each
// scan op also checks the internal-node reader of the range descent, on a
// well-formed node over the program's keys and on the page under test read
// as an internal node (garbage included).
func checkLeafKernels(t *testing.T, prog, garbage []byte) {
	var kern, ref [PageSize]byte
	copy(kern[:], garbage)
	kern[0] = nodeLeaf
	ref = kern
	inner := internalOver(prog)
	for i := 0; i+3 <= len(prog); i += 3 {
		op, kb, lb := prog[i]%4, prog[i+1], prog[i+2]
		key := int64(kb) - 128
		if prog[i]&0x80 != 0 {
			key <<= 55 // reach the extremes of the key space too
		}
		before := kern
		wellFormed := leafWellFormed(&before)
		switch op {
		case 0, 1: // put / update
			val := make([]byte, int(lb)*(MaxValueLen+1)/256)
			for j := range val {
				val[j] = byte(i + j)
			}
			fit, ok := leafPut(&kern, key, val)
			if ok != wellFormed {
				t.Fatalf("op %d: leafPut ok=%v on a page with wellFormed=%v", i/3, ok, wellFormed)
			}
			if !ok {
				if kern != before {
					t.Fatalf("op %d: leafPut modified a malformed page", i/3)
				}
				fit = leafPutDecoded(&kern, key, val)
			}
			if want := leafPutDecoded(&ref, key, val); fit != want {
				t.Fatalf("op %d: put(%d, %d bytes) fit=%v, reference %v", i/3, key, len(val), fit, want)
			}
			if !fit && kern != before {
				t.Fatalf("op %d: overflowing put modified the page", i/3)
			}
		case 2: // delete
			found, ok := leafDelete(&kern, key)
			if ok != wellFormed {
				t.Fatalf("op %d: leafDelete ok=%v on a page with wellFormed=%v", i/3, ok, wellFormed)
			}
			if !ok {
				if kern != before {
					t.Fatalf("op %d: leafDelete modified a malformed page", i/3)
				}
				found = leafDeleteDecoded(&kern, key)
			}
			if want := leafDeleteDecoded(&ref, key); found != want {
				t.Fatalf("op %d: delete(%d) found=%v, reference %v", i/3, key, found, want)
			}
		case 3: // scan [key, key+lb), stopping early after lb%7 visits
			lo, hi := key, key+int64(lb)-1
			limit := int(lb % 7)
			type kv struct {
				k int64
				v string
			}
			var got, want []kv
			r := snapshotLeaf(&kern, lo, hi)
			if wellFormed && r.entries != nil || !wellFormed && r.snap != nil {
				t.Fatalf("op %d: snapshotLeaf took the wrong path (wellFormed=%v)", i/3, wellFormed)
			}
			gotMore := r.visit(func(k int64, v []byte) bool {
				got = append(got, kv{k, string(v)})
				_ = append(v, 0xEE) // must not reach the next entry
				return len(got) != limit
			})
			wantMore := true
			for _, e := range readLeaf(&ref) {
				if e.key < lo {
					continue
				}
				if e.key > hi {
					wantMore = false
					break
				}
				want = append(want, kv{e.key, string(e.val)})
				if len(want) == limit {
					wantMore = false
					break
				}
			}
			if gotMore != wantMore || len(got) != len(want) {
				t.Fatalf("op %d: scan[%d,%d] visited %d more=%v, reference %d more=%v", i/3, lo, hi, len(got), gotMore, len(want), wantMore)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("op %d: scan[%d,%d] entry %d = %v, reference %v", i/3, lo, hi, j, got[j], want[j])
				}
			}
			// The in-place counter (Count's leaf visitor) against the
			// decoded reference, which never stops early.
			n, more := leafRangeCount(&kern, lo, hi)
			wantN, wantMore := 0, true
			for _, e := range readLeaf(&ref) {
				if e.key < lo {
					continue
				}
				if e.key > hi {
					wantMore = false
					break
				}
				wantN++
			}
			if n != wantN || more != wantMore {
				t.Fatalf("op %d: count[%d,%d] = %d more=%v, reference %d more=%v", i/3, lo, hi, n, more, wantN, wantMore)
			}
			checkInternalChildren(t, inner, lo)
			checkInternalChildren(t, &kern, lo)
		}
		if kern != ref {
			t.Fatalf("op %d (opcode %d, key %d): page bytes diverge from the reference", i/3, op, key)
		}
	}
}

// internalOver builds a well-formed internal node whose separators are the
// distinct keys prog's operations name, in order, and whose children are
// numbered 1, 2, ….
func internalOver(prog []byte) *[PageSize]byte {
	var node internalNode
	for i := 0; i+3 <= len(prog) && len(node.keys) < maxInternalKeys; i += 3 {
		key := int64(prog[i+1]) - 128
		if prog[i]&0x80 != 0 {
			key <<= 55
		}
		node.keys = append(node.keys, key)
	}
	slices.Sort(node.keys)
	node.keys = slices.Compact(node.keys)
	for j := 0; j <= len(node.keys); j++ {
		node.children = append(node.children, PageID(j+1))
	}
	var data [PageSize]byte
	writeInternal(&data, node)
	return &data
}

// checkInternalChildren checks internalChildrenFrom, the stack-buffer reader
// Scan and Count descend through, against the decoded reference: the
// children of readInternal from slot childIndex(keys, lo) on.
func checkInternalChildren(t *testing.T, data *[PageSize]byte, lo int64) {
	t.Helper()
	var buf [maxInternalKeys + 1]PageID
	got := internalChildrenFrom(data, lo, &buf)
	node := readInternal(data)
	if want := node.children[childIndex(node.keys, lo):]; !slices.Equal(got, want) {
		t.Fatalf("internal children from %d: %d of them %v, reference %d %v", lo, len(got), got, len(want), want)
	}
}

// FuzzLeafKernels is the differential test for the in-place leaf kernels:
// random operation sequences with values of 0..MaxValueLen bytes, pages
// filled until puts overflow, and arbitrary garbage as the starting page.
func FuzzLeafKernels(f *testing.F) {
	f.Add([]byte{0, 128, 10, 0, 129, 255, 1, 128, 200, 2, 129, 0, 3, 100, 60}, []byte(nil))
	// Fill to overflow with maximal values, then churn.
	var fill []byte
	for k := 0; k < 40; k++ {
		fill = append(fill, 0, byte(100+3*k), 255)
	}
	for k := 0; k < 40; k++ {
		fill = append(fill, byte(k%4), byte(100+k), byte(17*k))
	}
	f.Add(fill, []byte(nil))
	// Seeded random programs, so plain `go test` walks deep states too.
	r := rng.Derive(1, "leaf-kernels")
	for s := 0; s < 24; s++ {
		prog := make([]byte, 240)
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		f.Add(prog, []byte(nil))
	}
	// Garbage pages: a count no page can hold, a value running off the end,
	// keys out of order, duplicate keys, and noise.
	churn := []byte{0, 130, 40, 2, 131, 0, 3, 120, 30, 1, 129, 255, 2, 129, 0, 3, 0, 255}
	f.Add(churn, []byte{nodeLeaf, 0xff, 0xff})
	f.Add(churn, []byte{nodeLeaf, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff})
	unsorted := []byte{nodeLeaf, 2, 0}
	unsorted = binary.LittleEndian.AppendUint64(unsorted, 5)
	unsorted = append(unsorted, 1, 0, 'x')
	unsorted = binary.LittleEndian.AppendUint64(unsorted, 3)
	unsorted = append(unsorted, 1, 0, 'y')
	f.Add(churn, unsorted)
	dup := append([]byte(nil), unsorted...)
	binary.LittleEndian.PutUint64(dup[14:], 5)
	f.Add(churn, dup)
	noise := make([]byte, 48)
	for i := range noise {
		noise[i] = byte(r.Intn(256))
	}
	f.Add(churn, noise)

	f.Fuzz(func(t *testing.T, prog, garbage []byte) {
		checkLeafKernels(t, prog, garbage)
	})
}
