package minidb

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Executor runs the SQL subset the repository's workload generators emit
// against a DB. It is deliberately a *subset*: point selects, range
// selects (BETWEEN / ORDER BY ... LIMIT), single-row INSERT/UPDATE/DELETE,
// and join-shaped reads degraded to indexed range reads — the statement
// shapes of Table 2's workloads. Literals are folded into the loaded key
// range so replayed statements always land on real data.
//
// Statements are planned once per template shape and the plan is cached: a
// replay stream re-executes the same ~10 templates tens of thousands of
// times per measurement, so after warmup the per-statement cost is a cache
// lookup plus literal extraction instead of a full re-parse.
type Executor struct {
	db *DB
	// keySpace is the loaded key range per table; literals are reduced
	// modulo this value.
	keySpace int64

	created map[string]bool
	plans   *PlanCache
}

// NewExecutor wraps a DB for SQL execution over keys [0, keySpace).
func NewExecutor(db *DB, keySpace int64) *Executor {
	if keySpace < 1 {
		keySpace = 1
	}
	return &Executor{
		db:       db,
		keySpace: keySpace,
		created:  make(map[string]bool),
		plans:    NewPlanCache(),
	}
}

// Clone returns an executor for another worker goroutine over the same DB:
// it shares the plan cache (concurrent-safe, effectively read-only once the
// workload's templates have been seen) and copies the created-table set
// (executor-local, lock-free).
func (e *Executor) Clone() *Executor {
	created := make(map[string]bool, len(e.created))
	for k, v := range e.created {
		created[k] = v
	}
	return &Executor{db: e.db, keySpace: e.keySpace, created: created, plans: e.plans}
}

// PlanCacheStats reports plan cache hits and misses.
func (e *Executor) PlanCacheStats() (hits, misses uint64) { return e.plans.Stats() }

// RowsTouched is returned by Exec for observability.
type RowsTouched struct {
	Read, Written int
}

// kvOps is the row-operation surface a statement executes against: the DB
// itself (auto-commit) or an open transaction.
type kvOps interface {
	Get(table string, key int64) ([]byte, bool, error)
	Put(table string, key int64, val []byte) error
	Delete(table string, key int64) (bool, error)
	Count(table string, lo, hi int64) (int, error)
}

// Exec parses and executes one statement in auto-commit mode.
func (e *Executor) Exec(sql string) (RowsTouched, error) {
	return e.execOn(e.db, sql)
}

// ExecTxn runs a statement group as one transaction (the shape of a
// sysbench or TPC-C transaction), aborting and rolling back on lock
// timeouts so the caller can retry.
func (e *Executor) ExecTxn(stmts []string) (RowsTouched, error) {
	var total RowsTouched
	err := e.db.Txn(func(tx *Tx) error {
		for _, sql := range stmts {
			rt, err := e.execOn(tx, sql)
			if err != nil {
				return err
			}
			total.Read += rt.Read
			total.Written += rt.Written
		}
		return nil
	})
	if err != nil {
		return RowsTouched{}, err
	}
	return total, nil
}

// --- plan cache ------------------------------------------------------------

// planOp is the executable shape of a statement template.
type planOp uint8

const (
	planSelectPoint  planOp = iota // WHERE key = ?
	planSelectRange                // BETWEEN ? AND ?
	planSelectShort                // LIMIT / join-shaped: short indexed range
	planSelectWindow               // no literals: fixed scan window
	planInsert
	planUpdate
	planDelete
)

// stmtPlan is a cached, immutable plan for one statement template. Two
// statements with the same template key (digit runs normalized away) have
// identical structure and literal counts, so the classification holds for
// every instance of the template.
type stmtPlan struct {
	op    planOp
	table string
}

// PlanCache maps statement templates to plans. It is written only on a
// template's first appearance; a replay's steady state is all shared
// reads, so worker executors cloned from one warmed parent never contend.
type PlanCache struct {
	mu    sync.RWMutex
	plans map[string]stmtPlan

	hits, misses atomic.Uint64
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[string]stmtPlan)}
}

func (c *PlanCache) get(key string) (stmtPlan, bool) {
	c.mu.RLock()
	p, ok := c.plans[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

func (c *PlanCache) put(key string, p stmtPlan) {
	c.mu.Lock()
	c.plans[key] = p
	c.mu.Unlock()
}

// Len returns the number of cached templates.
func (c *PlanCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.plans)
}

// Stats reports cache hits and misses.
func (c *PlanCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// templateKey normalizes a statement to its template shape: every run of
// digits becomes '?', so "SELECT c FROM sbtest3 WHERE id=71" and
// "SELECT c FROM sbtest12 WHERE id=9" share one plan.
func templateKey(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c >= '0' && c <= '9' {
			b.WriteByte('?')
			for i < len(sql) && sql[i] >= '0' && sql[i] <= '9' {
				i++
			}
			continue
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func (e *Executor) execOn(ops kvOps, sql string) (RowsTouched, error) {
	key := templateKey(sql)
	plan, ok := e.plans.get(key)
	if !ok {
		var err error
		plan, err = planStatement(sql)
		if err != nil {
			// Parse errors are not cached: the same malformed template
			// should keep reporting its original error.
			return RowsTouched{}, err
		}
		e.plans.put(key, plan)
	}
	if err := e.ensureTable(plan.table); err != nil {
		return RowsTouched{}, err
	}
	lits := intLiterals(sql)
	switch plan.op {
	case planSelectPoint:
		k := int64(0)
		if len(lits) > 0 {
			k = e.key(lits[0])
		}
		_, found, err := ops.Get(plan.table, k)
		if found {
			return RowsTouched{Read: 1}, err
		}
		return RowsTouched{}, err
	case planSelectRange:
		lo, hi := int64(0), int64(0)
		if len(lits) >= 2 {
			lo, hi = e.key(lits[0]), e.key(lits[1])
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi-lo > 200 {
			hi = lo + 200 // bounded ranges, like sysbench's
		}
		n, err := ops.Count(plan.table, lo, hi)
		return RowsTouched{Read: n}, err
	case planSelectShort:
		// Secondary-index / join shapes degrade to a short indexed range.
		start := int64(0)
		if len(lits) > 0 {
			start = e.key(lits[0])
		}
		n, err := ops.Count(plan.table, start, start+20)
		return RowsTouched{Read: n}, err
	case planSelectWindow:
		// SELECT without literals (e.g. aggregates over a fixed window).
		n, err := ops.Count(plan.table, 0, 100)
		return RowsTouched{Read: n}, err
	case planInsert:
		k := int64(0)
		if len(lits) > 0 {
			k = e.key(lits[0])
		}
		return RowsTouched{Written: 1}, ops.Put(plan.table, k, rowPayload(k))
	case planUpdate:
		k := int64(0)
		if len(lits) > 0 {
			k = e.key(lits[len(lits)-1]) // WHERE literal comes last
		}
		return RowsTouched{Written: 1}, ops.Put(plan.table, k, rowPayload(k))
	case planDelete:
		k := int64(0)
		if len(lits) > 0 {
			k = e.key(lits[0])
		}
		ok, err := ops.Delete(plan.table, k)
		if ok {
			return RowsTouched{Written: 1}, err
		}
		return RowsTouched{}, err
	}
	return RowsTouched{}, fmt.Errorf("minidb: bad plan op %d", plan.op)
}

// planStatement classifies one statement into a cacheable plan.
func planStatement(sql string) (stmtPlan, error) {
	fields := strings.Fields(sql)
	if len(fields) == 0 {
		return stmtPlan{}, fmt.Errorf("minidb: empty statement")
	}
	switch strings.ToUpper(fields[0]) {
	case "SELECT":
		table, err := tableAfter(fields, "FROM")
		if err != nil {
			return stmtPlan{}, err
		}
		upper := strings.ToUpper(sql)
		lits := intLiterals(sql)
		switch {
		case strings.Contains(upper, "BETWEEN") && len(lits) >= 2:
			return stmtPlan{op: planSelectRange, table: table}, nil
		case strings.Contains(upper, "LIMIT") || strings.Contains(upper, "JOIN") || strings.Contains(upper, "IN (SELECT"):
			return stmtPlan{op: planSelectShort, table: table}, nil
		case len(lits) > 0:
			return stmtPlan{op: planSelectPoint, table: table}, nil
		default:
			return stmtPlan{op: planSelectWindow, table: table}, nil
		}
	case "INSERT":
		table, err := tableAfter(fields, "INTO")
		if err != nil {
			return stmtPlan{}, err
		}
		return stmtPlan{op: planInsert, table: table}, nil
	case "UPDATE":
		if len(fields) < 2 {
			return stmtPlan{}, fmt.Errorf("minidb: malformed UPDATE")
		}
		table := strings.TrimRight(strings.Trim(fields[1], "(),;"), "0123456789")
		return stmtPlan{op: planUpdate, table: table}, nil
	case "DELETE":
		table, err := tableAfter(fields, "FROM")
		if err != nil {
			return stmtPlan{}, err
		}
		return stmtPlan{op: planDelete, table: table}, nil
	}
	return stmtPlan{}, fmt.Errorf("minidb: unsupported statement %q", fields[0])
}

// tableAfter returns the identifier following the given keyword.
func tableAfter(fields []string, keyword string) (string, error) {
	for i, f := range fields {
		if strings.EqualFold(f, keyword) && i+1 < len(fields) {
			name := strings.Trim(fields[i+1], "(),;")
			// Collapse sharded names (sbtest37 -> sbtest) so the loaded
			// dataset is shared, mirroring the replayer's variable-name
			// sampling.
			return strings.TrimRight(name, "0123456789"), nil
		}
	}
	return "", fmt.Errorf("minidb: missing %s clause", keyword)
}

// intLiterals extracts integer literals in order of appearance.
func intLiterals(sql string) []int64 {
	var out []int64
	i := 0
	for i < len(sql) {
		c := sql[i]
		if c >= '0' && c <= '9' {
			j := i
			for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
				j++
			}
			// Skip digits glued to identifiers (sbtest37).
			if i > 0 && (isWordByte(sql[i-1])) {
				i = j
				continue
			}
			v, err := strconv.ParseInt(sql[i:j], 10, 64)
			if err == nil {
				out = append(out, v)
			}
			i = j
			continue
		}
		i++
	}
	return out
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func (e *Executor) key(v int64) int64 {
	k := v % e.keySpace
	if k < 0 {
		k += e.keySpace
	}
	return k
}

// ensureTable lazily creates tables so any workload runs against a fresh
// database.
func (e *Executor) ensureTable(name string) error {
	if e.created[name] {
		return nil
	}
	e.db.mu.RLock()
	_, exists := e.db.catalog[name]
	e.db.mu.RUnlock()
	if !exists {
		if err := e.db.CreateTable(name); err != nil {
			// Another executor may have created it concurrently.
			e.db.mu.RLock()
			_, nowExists := e.db.catalog[name]
			e.db.mu.RUnlock()
			if !nowExists {
				return err
			}
		}
	}
	e.created[name] = true
	return nil
}

// rowPayload builds a row image embedding the key.
func rowPayload(key int64) []byte {
	buf := make([]byte, 96)
	binary.LittleEndian.PutUint64(buf, uint64(key))
	for i := 8; i < len(buf); i++ {
		buf[i] = byte('a' + (key+int64(i))%26)
	}
	return buf
}

// Load bulk-inserts rows [0, n) into a table, creating it if needed. The
// loader path writes the B+tree directly and checkpoints once at the end
// instead of paying a WAL commit per row — the standard bulk-ingest
// shortcut (durability comes from the final checkpoint).
func (e *Executor) Load(table string, n int64) error {
	if err := e.ensureTable(table); err != nil {
		return err
	}
	t, _, err := e.db.table(table)
	if err != nil {
		return err
	}
	for k := int64(0); k < n; k++ {
		if err := t.Put(k, rowPayload(k)); err != nil {
			return err
		}
	}
	e.db.syncRoot(table, t)
	return e.db.checkpoint()
}
