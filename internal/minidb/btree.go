package minidb

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// BTree is a B+tree over buffer-pool pages: int64 keys, bounded []byte
// values. Concurrency follows a two-level latch scheme:
//
//   - The tree latch (t.mu) is held *shared* by every read and by writes
//     that stay in place, and *exclusive* only for structure modifications
//     (splits, root growth). While any shared holder is descending, no page
//     can change type, move, or have its key range altered — so descents
//     need no lock coupling across levels.
//   - Each page frame carries a read-write latch guarding its bytes: node
//     readers hold it shared, in-place leaf writers hold it exclusive. This
//     is what lets point reads of one leaf run concurrently with updates to
//     another under the same shared tree latch.
//
// A writer first tries the fast path (shared tree latch + exclusive leaf
// latch); only when the leaf would overflow does it escalate to the
// exclusive tree latch and run the recursive split insert. Deletes never
// rebalance, so they always take the fast path. Page latches are always
// released before Unpin — the pool takes page latches while holding an
// instance mutex (FlushAll), so the reverse order would deadlock (see
// DESIGN.md, latch ordering).
type BTree struct {
	mu   sync.RWMutex
	pool *BufferPool
	root PageID
	// smo collects the pages written by the in-flight structural
	// modification (split, root growth). They stay pinned — and therefore
	// unevictable and invisible to the cleaner — until onStructural has
	// logged their images, so no post-split page can reach disk before the
	// redo describing the whole split is in the log. Guarded by the
	// exclusive tree latch.
	smo []*page
	// onStructural, when set, logs physical page images (and the possibly
	// changed root) for a completed structural modification. The DB wires
	// it to WAL page-image records.
	onStructural func(pages []*page, root PageID) error
	// latchWaits, when set, counts contended exclusive tree-latch
	// escalations (split path). Nil — the default — keeps the plain Lock.
	latchWaits obs.Counter
}

const (
	nodeLeaf     = 0
	nodeInternal = 1
	// MaxValueLen bounds stored values.
	MaxValueLen = 256
	headerSize  = 3 // type byte + uint16 count
	// maxDepth bounds tree descents. A valid tree at this fanout never
	// exceeds single digits; the guard turns cycles in corrupt trees
	// (crafted WAL bytes, torn pages) into errors instead of hangs.
	maxDepth = 64
)

// errCorrupt is returned when a descent meets a structurally impossible
// tree (a cycle, or deeper than any valid tree can be).
var errCorrupt = fmt.Errorf("minidb: corrupt tree (descent exceeded %d levels)", maxDepth)

// newBTree creates an empty tree with a fresh leaf root.
func newBTree(pool *BufferPool, pager *pager) (*BTree, error) {
	root := pager.allocate()
	t := &BTree{pool: pool, root: root}
	p, err := pool.Fetch(root)
	if err != nil {
		return nil, err
	}
	p.latch.Lock()
	writeLeaf(&p.data, nil)
	p.latch.Unlock()
	pool.Unpin(p, true)
	return t, nil
}

// openBTree attaches to an existing tree.
func openBTree(pool *BufferPool, root PageID) *BTree {
	return &BTree{pool: pool, root: root}
}

// Root returns the root page id (persisted by the catalog).
func (t *BTree) Root() PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

// --- node encodings --------------------------------------------------------

type leafEntry struct {
	key int64
	val []byte
}

// readLeaf decodes a leaf. Decoding is bounds-checked — a garbage page
// (torn write, crafted WAL image) yields the entries that fit, never a
// panic; on a valid page the checks are no-ops.
func readLeaf(data *[PageSize]byte) []leafEntry {
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	entries := make([]leafEntry, 0, n)
	off := headerSize
	for i := 0; i < n; i++ {
		if off+10 > PageSize {
			break
		}
		key := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		vlen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+vlen > PageSize {
			break
		}
		val := make([]byte, vlen)
		copy(val, data[off:off+vlen])
		off += vlen
		entries = append(entries, leafEntry{key, val})
	}
	return entries
}

// leafFind searches a leaf in place, copying out only the matching value —
// the point-read path allocates one value instead of the whole page's worth.
func leafFind(data *[PageSize]byte, key int64) ([]byte, bool) {
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	off := headerSize
	for i := 0; i < n; i++ {
		if off+10 > PageSize {
			return nil, false
		}
		k := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		vlen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+vlen > PageSize {
			return nil, false
		}
		if k == key {
			return append([]byte(nil), data[off:off+vlen]...), true
		}
		if k > key {
			return nil, false
		}
		off += vlen
	}
	return nil, false
}

func leafSize(entries []leafEntry) int {
	s := headerSize
	for _, e := range entries {
		s += 10 + len(e.val)
	}
	return s
}

func writeLeaf(data *[PageSize]byte, entries []leafEntry) {
	data[0] = nodeLeaf
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(entries)))
	off := headerSize
	for _, e := range entries {
		binary.LittleEndian.PutUint64(data[off:], uint64(e.key))
		off += 8
		binary.LittleEndian.PutUint16(data[off:], uint16(len(e.val)))
		off += 2
		copy(data[off:], e.val)
		off += len(e.val)
	}
}

// --- in-place leaf kernels ---------------------------------------------------
//
// The non-splitting paths edit a leaf's bytes where they lie instead of
// decoding the page into []leafEntry and re-encoding it. The leaf format is
// unchanged and the resulting page bytes are exactly what the decoded path
// (readLeaf → modify → writeLeaf) would have written, including the stale
// bytes past the last entry that writeLeaf never clears. A kernel only acts
// on a well-formed leaf — every entry inside the page, keys strictly
// ascending; on anything else it reports ok=false with the page untouched
// and the caller takes the decoded path, whose bounds-checked readLeaf
// defines the behaviour on garbage.

// leafCount is the entry count a leaf's header claims.
func leafCount(data *[PageSize]byte) int {
	return int(binary.LittleEndian.Uint16(data[1:3]))
}

// leafSpan walks a leaf once. start is the offset of the first entry with
// key >= lo, stop the offset of the first entry at or after start with
// key > hi (so [start, stop) holds exactly the entries in [lo, hi]), and end
// the offset past the last entry. ok is false on a malformed leaf.
func leafSpan(data *[PageSize]byte, lo, hi int64) (start, stop, end int, ok bool) {
	n := leafCount(data)
	start, stop = -1, -1
	off := headerSize
	var prev int64
	for i := 0; i < n; i++ {
		if off+10 > PageSize {
			return 0, 0, 0, false
		}
		k := int64(binary.LittleEndian.Uint64(data[off:]))
		next := off + 10 + int(binary.LittleEndian.Uint16(data[off+8:]))
		if next > PageSize || (i > 0 && k <= prev) {
			return 0, 0, 0, false
		}
		if start < 0 && k >= lo {
			start = off
		}
		if start >= 0 && stop < 0 && k > hi {
			stop = off
		}
		prev = k
		off = next
	}
	if start < 0 {
		start = off
	}
	if stop < 0 {
		stop = off
	}
	return start, stop, off, true
}

// leafPut inserts or overwrites key in place. fit=false means the result
// would overflow the page; nothing was written.
func leafPut(data *[PageSize]byte, key int64, val []byte) (fit, ok bool) {
	start, stop, end, ok := leafSpan(data, key, key)
	if !ok {
		return false, false
	}
	next := start + 10 + len(val)
	if end+next-stop > PageSize {
		return false, true
	}
	copy(data[next:], data[stop:end])
	binary.LittleEndian.PutUint64(data[start:], uint64(key))
	binary.LittleEndian.PutUint16(data[start+8:], uint16(len(val)))
	copy(data[start+10:], val)
	if start == stop {
		binary.LittleEndian.PutUint16(data[1:3], uint16(leafCount(data)+1))
	}
	return true, true
}

// leafDelete removes key in place, reporting whether it was present.
func leafDelete(data *[PageSize]byte, key int64) (found, ok bool) {
	start, stop, end, ok := leafSpan(data, key, key)
	if !ok || start == stop {
		return false, ok
	}
	copy(data[start:], data[stop:end])
	binary.LittleEndian.PutUint16(data[1:3], uint16(leafCount(data)-1))
	return true, true
}

// upsertEntry is the decoded path's insert-or-overwrite, shared by the
// split path and the malformed-page fallback.
func upsertEntry(entries []leafEntry, key int64, val []byte) []leafEntry {
	idx := 0
	for idx < len(entries) && entries[idx].key < key {
		idx++
	}
	if idx < len(entries) && entries[idx].key == key {
		entries[idx].val = append([]byte(nil), val...)
		return entries
	}
	entries = append(entries, leafEntry{})
	copy(entries[idx+1:], entries[idx:])
	entries[idx] = leafEntry{key, append([]byte(nil), val...)}
	return entries
}

// leafPutDecoded is leafPut through the decoded path.
func leafPutDecoded(data *[PageSize]byte, key int64, val []byte) (fit bool) {
	entries := upsertEntry(readLeaf(data), key, val)
	if leafSize(entries) > PageSize {
		return false
	}
	writeLeaf(data, entries)
	return true
}

// leafDeleteDecoded is leafDelete through the decoded path.
func leafDeleteDecoded(data *[PageSize]byte, key int64) (found bool) {
	entries := readLeaf(data)
	for i, e := range entries {
		if e.key == key {
			writeLeaf(data, append(entries[:i], entries[i+1:]...))
			return true
		}
	}
	return false
}

// leafRange is one leaf's answer to a range scan: taken under the page
// latch, visited after the latch and the pin are released.
type leafRange struct {
	// snap holds the bytes of the entries in [lo, hi] of a well-formed leaf,
	// copied once; entries holds them decoded for a malformed one.
	snap    []byte
	entries []leafEntry
	// more is false when a key above hi was met: the scan ends at this leaf.
	more bool
}

func snapshotLeaf(data *[PageSize]byte, lo, hi int64) leafRange {
	if start, stop, end, ok := leafSpan(data, lo, hi); ok {
		return leafRange{snap: append([]byte(nil), data[start:stop]...), more: stop == end}
	}
	return decodedRange(data, lo, hi)
}

// decodedRange is a range's answer through the decoded path, whose
// bounds-checked readLeaf defines the behaviour on a malformed leaf.
func decodedRange(data *[PageSize]byte, lo, hi int64) leafRange {
	r := leafRange{more: true}
	for _, e := range readLeaf(data) {
		if e.key < lo {
			continue
		}
		if e.key > hi {
			r.more = false
			break
		}
		r.entries = append(r.entries, e)
	}
	return r
}

// leafRangeCount counts a leaf's entries in [lo, hi] where they lie, and
// reports what snapshotLeaf's more would: whether the range continues past
// this leaf.
func leafRangeCount(data *[PageSize]byte, lo, hi int64) (n int, more bool) {
	start, stop, end, ok := leafSpan(data, lo, hi)
	if !ok {
		r := decodedRange(data, lo, hi)
		return len(r.entries), r.more
	}
	for off := start; off < stop; n++ {
		off += 10 + int(binary.LittleEndian.Uint16(data[off+8:]))
	}
	return n, stop == end
}

// visit calls fn on each entry in key order and reports whether the scan
// continues past this leaf.
func (r leafRange) visit(fn func(int64, []byte) bool) bool {
	for _, e := range r.entries {
		if !fn(e.key, e.val) {
			return false
		}
	}
	for off := 0; off < len(r.snap); {
		k := int64(binary.LittleEndian.Uint64(r.snap[off:]))
		next := off + 10 + int(binary.LittleEndian.Uint16(r.snap[off+8:]))
		// Capacity-capped: a callback that appends to val must not reach
		// into the next entry of the shared snapshot.
		if !fn(k, r.snap[off+10:next:next]) {
			return false
		}
		off = next
	}
	return r.more
}

type internalNode struct {
	keys     []int64  // n separators
	children []PageID // n+1 children; child[i] holds keys < keys[i]
}

// maxInternalKeys is the separator count that fits a page; a larger stored
// count is corruption and is clamped rather than walked off the page.
const maxInternalKeys = (PageSize - headerSize - 4) / 12

func readInternal(data *[PageSize]byte) internalNode {
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	if n > maxInternalKeys {
		n = maxInternalKeys
	}
	node := internalNode{keys: make([]int64, n), children: make([]PageID, n+1)}
	off := headerSize
	node.children[0] = PageID(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	for i := 0; i < n; i++ {
		node.keys[i] = int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		node.children[i+1] = PageID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	return node
}

// internalChild picks the descent child for key without materializing the
// node.
func internalChild(data *[PageSize]byte, key int64) PageID {
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	if n > maxInternalKeys {
		n = maxInternalKeys
	}
	off := headerSize
	child := PageID(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	for i := 0; i < n; i++ {
		k := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		if key < k {
			return child
		}
		child = PageID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	return child
}

// internalChildrenFrom copies an internal node's children into buf, without
// materializing its keys, and returns those from slot childIndex(keys, lo)
// on: the ones a range starting at lo descends into.
func internalChildrenFrom(data *[PageSize]byte, lo int64, buf *[maxInternalKeys + 1]PageID) []PageID {
	n := int(binary.LittleEndian.Uint16(data[1:3]))
	if n > maxInternalKeys {
		n = maxInternalKeys
	}
	off := headerSize
	buf[0] = PageID(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	first := -1
	for i := 0; i < n; i++ {
		if first < 0 && lo < int64(binary.LittleEndian.Uint64(data[off:])) {
			first = i
		}
		off += 8
		buf[i+1] = PageID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	if first < 0 {
		first = n
	}
	return buf[first : n+1]
}

func internalSize(n internalNode) int { return headerSize + 4 + 12*len(n.keys) }

func writeInternal(data *[PageSize]byte, node internalNode) {
	data[0] = nodeInternal
	binary.LittleEndian.PutUint16(data[1:3], uint16(len(node.keys)))
	off := headerSize
	binary.LittleEndian.PutUint32(data[off:], uint32(node.children[0]))
	off += 4
	for i, k := range node.keys {
		binary.LittleEndian.PutUint64(data[off:], uint64(k))
		off += 8
		binary.LittleEndian.PutUint32(data[off:], uint32(node.children[i+1]))
		off += 4
	}
}

// --- operations -------------------------------------------------------------

// Get returns the value stored under key.
func (t *BTree) Get(key int64) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return nil, false, errCorrupt
		}
		p, err := t.pool.Fetch(id)
		if err != nil {
			return nil, false, err
		}
		p.latch.RLock()
		if p.data[0] == nodeLeaf {
			val, ok := leafFind(&p.data, key)
			p.latch.RUnlock()
			t.pool.Unpin(p, false)
			return val, ok, nil
		}
		next := internalChild(&p.data, key)
		p.latch.RUnlock()
		t.pool.Unpin(p, false)
		id = next
	}
}

// childIndex returns the child slot for key.
func childIndex(keys []int64, key int64) int {
	i := 0
	for i < len(keys) && key >= keys[i] {
		i++
	}
	return i
}

// splitResult propagates a child split upward.
type splitResult struct {
	sepKey   int64
	newChild PageID
}

// Put inserts or updates a key. The fast path runs under the shared tree
// latch with an exclusive latch on the target leaf only; a leaf overflow
// escalates to the exclusive tree latch for the split.
func (t *BTree) Put(key int64, val []byte) error {
	if len(val) > MaxValueLen {
		return fmt.Errorf("minidb: value length %d exceeds %d", len(val), MaxValueLen)
	}
	done, err := t.putInPlace(key, val)
	if done || err != nil {
		return err
	}
	if t.latchWaits == nil {
		t.mu.Lock()
	} else if !t.mu.TryLock() {
		t.latchWaits.Add(1)
		t.mu.Lock()
	}
	defer t.mu.Unlock()
	defer t.releaseSMO()
	split, err := t.insert(t.root, key, val, 0)
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: grow the tree.
		newRoot := t.pool.pager.allocate()
		p, err := t.pool.Fetch(newRoot)
		if err != nil {
			return err
		}
		p.latch.Lock()
		writeInternal(&p.data, internalNode{
			keys:     []int64{split.sepKey},
			children: []PageID{t.root, split.newChild},
		})
		p.latch.Unlock()
		t.smo = append(t.smo, p)
		t.root = newRoot
	}
	if t.onStructural != nil && len(t.smo) > 0 {
		// Log the whole split (every written page, plus the root) before
		// releaseSMO unpins the pages and makes them flushable.
		if err := t.onStructural(t.smo, t.root); err != nil {
			return err
		}
	}
	return nil
}

// releaseSMO unpins the pages the structural modification wrote, marking
// them dirty. Caller holds the exclusive tree latch.
func (t *BTree) releaseSMO() {
	for _, p := range t.smo {
		t.pool.Unpin(p, true)
	}
	t.smo = t.smo[:0]
}

// putInPlace attempts the in-place leaf update under the shared tree latch.
// It reports done=false (without modifying anything) when the leaf would
// overflow and the caller must escalate to a split.
func (t *BTree) putInPlace(key int64, val []byte) (done bool, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return false, errCorrupt
		}
		p, err := t.pool.Fetch(id)
		if err != nil {
			return false, err
		}
		p.latch.RLock()
		if p.data[0] != nodeLeaf {
			next := internalChild(&p.data, key)
			p.latch.RUnlock()
			t.pool.Unpin(p, false)
			id = next
			continue
		}
		p.latch.RUnlock()
		// Re-latch exclusive. The page cannot change type or key range in
		// between: both would require the exclusive tree latch, blocked by
		// our shared hold. Another in-place writer may slip in, which is
		// fine — the size check below sees the latest contents.
		p.latch.Lock()
		fit, ok := leafPut(&p.data, key, val)
		if !ok {
			fit = leafPutDecoded(&p.data, key, val)
		}
		p.latch.Unlock()
		t.pool.Unpin(p, fit)
		return fit, nil
	}
}

// insert runs under the exclusive tree latch. Other tree operations are
// excluded, but checkpoints (FlushAll) may still read pinned pages under
// their shared latches, so page writes take the exclusive page latch.
// Every page it writes is appended to t.smo still pinned (Put unpins them
// after the structural hook has logged their images); read-only descents
// unpin immediately.
func (t *BTree) insert(id PageID, key int64, val []byte, depth int) (*splitResult, error) {
	if depth >= maxDepth {
		return nil, errCorrupt
	}
	p, err := t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	if p.data[0] == nodeLeaf {
		entries := upsertEntry(readLeaf(&p.data), key, val)
		if leafSize(entries) <= PageSize {
			p.latch.Lock()
			writeLeaf(&p.data, entries)
			p.latch.Unlock()
			t.pool.Unpin(p, true)
			return nil, nil
		}
		// Split the leaf.
		mid := len(entries) / 2
		left, right := entries[:mid], entries[mid:]
		p.latch.Lock()
		writeLeaf(&p.data, left)
		p.latch.Unlock()
		t.smo = append(t.smo, p)
		rightID := t.pool.pager.allocate()
		rp, err := t.pool.Fetch(rightID)
		if err != nil {
			return nil, err
		}
		rp.latch.Lock()
		writeLeaf(&rp.data, right)
		rp.latch.Unlock()
		t.smo = append(t.smo, rp)
		return &splitResult{sepKey: right[0].key, newChild: rightID}, nil
	}

	node := readInternal(&p.data)
	ci := childIndex(node.keys, key)
	child := node.children[ci]
	t.pool.Unpin(p, false)
	split, err := t.insert(child, key, val, depth+1)
	if err != nil || split == nil {
		return nil, err
	}
	// Re-fetch and install the separator.
	p, err = t.pool.Fetch(id)
	if err != nil {
		return nil, err
	}
	node = readInternal(&p.data)
	ci = childIndex(node.keys, split.sepKey)
	node.keys = append(node.keys, 0)
	copy(node.keys[ci+1:], node.keys[ci:])
	node.keys[ci] = split.sepKey
	node.children = append(node.children, 0)
	copy(node.children[ci+2:], node.children[ci+1:])
	node.children[ci+1] = split.newChild

	if internalSize(node) <= PageSize {
		p.latch.Lock()
		writeInternal(&p.data, node)
		p.latch.Unlock()
		t.smo = append(t.smo, p)
		return nil, nil
	}
	// Split the internal node.
	mid := len(node.keys) / 2
	sep := node.keys[mid]
	leftNode := internalNode{keys: node.keys[:mid], children: node.children[:mid+1]}
	rightNode := internalNode{
		keys:     append([]int64(nil), node.keys[mid+1:]...),
		children: append([]PageID(nil), node.children[mid+1:]...),
	}
	p.latch.Lock()
	writeInternal(&p.data, leftNode)
	p.latch.Unlock()
	t.smo = append(t.smo, p)
	rightID := t.pool.pager.allocate()
	rp, err := t.pool.Fetch(rightID)
	if err != nil {
		return nil, err
	}
	rp.latch.Lock()
	writeInternal(&rp.data, rightNode)
	rp.latch.Unlock()
	t.smo = append(t.smo, rp)
	return &splitResult{sepKey: sep, newChild: rightID}, nil
}

// Delete removes a key, reporting whether it existed. Deletes only ever
// shrink a leaf in place (no rebalancing), so the fast path is the only
// path: shared tree latch, exclusive latch on the target leaf.
func (t *BTree) Delete(key int64) (bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return false, errCorrupt
		}
		p, err := t.pool.Fetch(id)
		if err != nil {
			return false, err
		}
		p.latch.RLock()
		if p.data[0] != nodeLeaf {
			next := internalChild(&p.data, key)
			p.latch.RUnlock()
			t.pool.Unpin(p, false)
			id = next
			continue
		}
		p.latch.RUnlock()
		p.latch.Lock()
		found, ok := leafDelete(&p.data, key)
		if !ok {
			found = leafDeleteDecoded(&p.data, key)
		}
		p.latch.Unlock()
		t.pool.Unpin(p, found)
		return found, nil
	}
}

// Scan visits keys in [lo, hi] in order until fn returns false. val is a
// slice of a private per-leaf snapshot: fn may keep it, and runs with no
// latch or pin held.
func (t *BTree) Scan(lo, hi int64, fn func(key int64, val []byte) bool) error {
	w := rangeWalk{lo: lo, hi: hi, fn: fn}
	return t.walkRange(&w)
}

// Count returns the number of keys in [lo, hi]. It copies nothing: each
// leaf is counted in place under its page latch. It fetches and unpins the
// same pages in the same order as a Scan whose fn always returns true, so
// the buffer pool's counters and LRU order cannot tell the two apart. On an
// error the count holds the keys seen before it.
func (t *BTree) Count(lo, hi int64) (int, error) {
	w := rangeWalk{lo: lo, hi: hi}
	err := t.walkRange(&w)
	return w.n, err
}

// rangeWalk is one range statement's descent, shared by Scan and Count;
// only the leaf visitor differs. With fn set, a leaf's entries in [lo, hi]
// are snapshotted under the latch and handed to fn after the latch and the
// pin are released; with fn nil they are counted into n in place.
type rangeWalk struct {
	lo, hi int64
	fn     func(int64, []byte) bool
	n      int
}

func (t *BTree) walkRange(w *rangeWalk) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, err := t.walk(w, t.root, 0)
	return err
}

func (t *BTree) walk(w *rangeWalk, id PageID, depth int) (bool, error) {
	if depth >= maxDepth {
		return false, errCorrupt
	}
	p, err := t.pool.Fetch(id)
	if err != nil {
		return false, err
	}
	p.latch.RLock()
	if p.data[0] == nodeLeaf {
		if w.fn == nil {
			n, more := leafRangeCount(&p.data, w.lo, w.hi)
			p.latch.RUnlock()
			t.pool.Unpin(p, false)
			w.n += n
			return more, nil
		}
		r := snapshotLeaf(&p.data, w.lo, w.hi)
		p.latch.RUnlock()
		t.pool.Unpin(p, false)
		return r.visit(w.fn), nil
	}
	var buf [maxInternalKeys + 1]PageID
	children := internalChildrenFrom(&p.data, w.lo, &buf)
	p.latch.RUnlock()
	t.pool.Unpin(p, false)
	for _, child := range children {
		more, err := t.walk(w, child, depth+1)
		if err != nil || !more {
			return false, err
		}
	}
	return true, nil
}
