package minidb

import (
	"errors"
	"runtime"
	"time"
)

// ErrTxAborted reports that a transaction could not take a row lock in time
// (the engine's deadlock-avoidance policy: abort and let the client retry,
// InnoDB's lock-wait-timeout behaviour).
var ErrTxAborted = errors.New("minidb: transaction aborted (lock wait timeout)")

// txLockTimeout bounds each row-lock wait inside a transaction.
const txLockTimeout = 250 * time.Millisecond

// beforeImage records a row's pre-transaction state for rollback.
type beforeImage struct {
	table   string
	key     int64
	existed bool
	value   []byte
}

// Tx is an explicit multi-statement transaction. Writes apply eagerly to
// the B+trees while row locks are held and before-images are retained;
// Commit appends a single WAL commit record (so the whole transaction is
// recovered or dropped atomically) and Rollback restores the before-images.
// Row locks are held until Commit or Rollback — strict two-phase locking.
type Tx struct {
	db     *DB
	txn    uint32 // WAL transaction id: groups this tx's records at recovery
	locks  map[uint64]bool
	undo   []beforeImage
	logged bool // any WAL records appended
	done   bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db, txn: db.nextTxn.Add(1), locks: make(map[uint64]bool)}
}

// lock takes (or re-uses) a row lock with the transaction lock timeout.
func (tx *Tx) lock(id uint64) error {
	if tx.locks[id] {
		return nil
	}
	if !tx.db.locks.AcquireTimeout(id, txLockTimeout) {
		return ErrTxAborted
	}
	tx.locks[id] = true
	return nil
}

// releaseAll drops every lock held.
func (tx *Tx) releaseAll() {
	for id := range tx.locks {
		tx.db.locks.Release(id)
	}
	tx.locks = map[uint64]bool{}
}

// Get reads a row under the transaction's locks (writes it has made are
// visible; a lock is taken so the read is repeatable).
func (tx *Tx) Get(table string, key int64) ([]byte, bool, error) {
	if tx.done {
		return nil, false, errors.New("minidb: transaction finished")
	}
	t, id, err := tx.db.table(table)
	if err != nil {
		return nil, false, err
	}
	if err := tx.lock(rowLockID(id, key)); err != nil {
		return nil, false, err
	}
	return t.Get(key)
}

// Put writes a row, retaining its before-image.
func (tx *Tx) Put(table string, key int64, val []byte) error {
	if tx.done {
		return errors.New("minidb: transaction finished")
	}
	t, id, err := tx.db.table(table)
	if err != nil {
		return err
	}
	if err := tx.lock(rowLockID(id, key)); err != nil {
		return err
	}
	prev, existed, err := t.Get(key)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, beforeImage{table, key, existed, prev})
	if err := tx.db.wal.AppendUndo(recPut, tx.txn, id, key, val, existed, prev); err != nil {
		return err
	}
	if err := t.Put(key, val); err != nil {
		return err
	}
	tx.db.syncRoot(table, t)
	tx.logged = true
	return nil
}

// Delete removes a row, retaining its before-image.
func (tx *Tx) Delete(table string, key int64) (bool, error) {
	if tx.done {
		return false, errors.New("minidb: transaction finished")
	}
	t, id, err := tx.db.table(table)
	if err != nil {
		return false, err
	}
	if err := tx.lock(rowLockID(id, key)); err != nil {
		return false, err
	}
	prev, existed, err := t.Get(key)
	if err != nil {
		return false, err
	}
	if !existed {
		return false, nil
	}
	tx.undo = append(tx.undo, beforeImage{table, key, true, prev})
	if err := tx.db.wal.AppendUndo(recDelete, tx.txn, id, key, nil, true, prev); err != nil {
		return false, err
	}
	if _, err := t.Delete(key); err != nil {
		return false, err
	}
	tx.logged = true
	return true, nil
}

// Count returns the number of rows in [lo, hi]. Range locks are not taken
// (the count reads the committed tree state plus this transaction's own
// writes) — the same non-serializable range behaviour InnoDB's default
// isolation level allows.
func (tx *Tx) Count(table string, lo, hi int64) (int, error) {
	if tx.done {
		return 0, errors.New("minidb: transaction finished")
	}
	t, _, err := tx.db.table(table)
	if err != nil {
		return 0, err
	}
	return t.Count(lo, hi)
}

// Commit makes the transaction durable (one commit record under the
// engine's flush policy) and releases its locks.
func (tx *Tx) Commit() error {
	if tx.done {
		return errors.New("minidb: transaction finished")
	}
	tx.done = true
	defer tx.releaseAll()
	tx.db.commits.Add(1)
	if !tx.logged {
		return nil // read-only transaction
	}
	return tx.db.wal.Commit(tx.txn)
}

// Rollback restores every before-image (newest first) and releases locks.
//
// Each compensation is itself WAL-logged and the transaction ends with a
// commit marker, ARIES-style compensation log records: recovery replays the
// rollback as a committed net-zero transaction. Without the CLRs a
// rolled-back transaction looks merely uncommitted, and recovery's undo
// pass would re-apply its stale before-images AFTER redoing commits that
// landed later — silently reverting acknowledged writes (found by the
// crash-point harness). If we crash mid-rollback the marker is absent and
// undo still converges: before-images of records older than the partial
// compensations dominate, newest-first.
func (tx *Tx) Rollback() error {
	if tx.done {
		return nil
	}
	tx.done = true
	defer tx.releaseAll()
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		t, id, err := tx.db.table(u.table)
		if err != nil {
			return err
		}
		cur, curExisted, err := t.Get(u.key)
		if err != nil {
			return err
		}
		if u.existed {
			if err := tx.db.wal.AppendUndo(recPut, tx.txn, id, u.key, u.value, curExisted, cur); err != nil {
				return err
			}
			if err := t.Put(u.key, u.value); err != nil {
				return err
			}
		} else {
			if err := tx.db.wal.AppendUndo(recDelete, tx.txn, id, u.key, nil, curExisted, cur); err != nil {
				return err
			}
			if _, err := t.Delete(u.key); err != nil {
				return err
			}
		}
	}
	if tx.logged {
		return tx.db.wal.AppendCommit(tx.txn)
	}
	return nil
}

// Txn runs fn in a transaction, committing on nil and rolling back on
// error (including ErrTxAborted from lock timeouts).
func (db *DB) Txn(fn func(tx *Tx) error) error {
	tx := db.Begin()
	if err := fn(tx); err != nil {
		if rbErr := tx.Rollback(); rbErr != nil {
			return rbErr
		}
		return err
	}
	return tx.Commit()
}

// AcquireTimeout takes the lock, giving up after the deadline — the
// transaction path's deadlock-avoidance primitive.
func (lm *LockManager) AcquireTimeout(id uint64, timeout time.Duration) bool {
	if lm.tryAcquire(id) {
		return true
	}
	lm.waits.Add(1)
	for round := 0; round < lm.SyncSpinLoops; round++ {
		lm.spins.Add(1)
		for d := 0; d < lm.SpinWaitDelay; d++ {
			runtime.Gosched()
		}
		if lm.tryAcquire(id) {
			return true
		}
	}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		s := lm.shard(id)
		s.mu.Lock()
		l := lm.shard(id).locks[id]
		if l == nil || !l.held {
			if l == nil {
				s.locks[id] = &rowLock{held: true}
			} else {
				l.held = true
			}
			s.mu.Unlock()
			return true
		}
		ch := make(chan struct{})
		l.waiters = append(l.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			// Deregister the abandoned channel so it cannot swallow a
			// later Release's wake-up meant for a live waiter.
			lm.abandonWaiter(id, ch)
			return lm.tryAcquire(id)
		}
	}
	return lm.tryAcquire(id)
}
