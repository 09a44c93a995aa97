package lock

import "sync"

// waitInfo is the registry's snapshot of one queued request: the
// logical resource and mode, from which rowsOf gives its rows, and its
// waiter on each. Detection reads the copied fields, never the live
// waiters (which are pooled and may be recycled the moment the request
// leaves the registry); the pointers are kept only for identity checks
// against queue slots.
type waitInfo struct {
	res     ResourceID
	mode    Mode
	upgrade bool
	ws      [classPartitions]*waiter
}

// waitRegistry is the dedicated waits-for structure: every blocked
// transaction, under its own mutex. It is updated only when a request
// queues and when it leaves — the slow path — so the grant hot path
// never touches it. Lock order: shard mutexes may be held when taking
// reg.mu; reg.mu is a leaf and is never held across shard or detection
// locks.
type waitRegistry struct {
	mu      sync.Mutex
	waiting map[TxnID]waitInfo
}

func (r *waitRegistry) put(txn TxnID, info waitInfo) {
	r.mu.Lock()
	r.waiting[txn] = info
	r.mu.Unlock()
}

func (r *waitRegistry) remove(txn TxnID) {
	r.mu.Lock()
	delete(r.waiting, txn)
	r.mu.Unlock()
}

func (r *waitRegistry) get(txn TxnID) (waitInfo, bool) {
	r.mu.Lock()
	info, ok := r.waiting[txn]
	r.mu.Unlock()
	return info, ok
}

// blockersOf returns the transactions the registered request waits for
// on each row that does not admit it: incompatible holders and admitted
// waiters, and every other waiter queued ahead of it there (FIFO
// admission means they must leave first).
func (m *Manager) blockersOf(txn TxnID, info waitInfo) []TxnID {
	var r rows
	m.rowsOf(&r, txn, info.res, info.mode)
	var out []TxnID
	for i := 0; i < r.n; i++ {
		out = m.rowBlockers(txn, info.ws[i], r.res[i], r.h[i], info.mode, out)
	}
	return out
}

// rowBlockers appends to out the blockers of txn's waiter w on the row
// of res, whose hash is h. It locks only the one shard owning the row.
func (m *Manager) rowBlockers(txn TxnID, w *waiter, res ResourceID, h uint64, mode Mode, out []TxnID) []TxnID {
	sh := m.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table.get(res, h)
	if e == nil {
		return out
	}
	// The registry snapshot may be stale: if the request was granted (or
	// withdrawn) since the DFS read it, the wait has dissolved and reporting
	// edges from the queue scan below would fabricate blockers — and with
	// them phantom deadlocks. Only a waiter still in the queue has edges.
	// Waiters are pooled, so pointer identity alone is not enough: a
	// granted waiter may already be back in this queue on behalf of
	// another transaction.
	ahead := -1
	for i, q := range e.queue {
		if q == w && q.txn == txn {
			ahead = i
			break
		}
	}
	// An admitted waiter waits for nothing on this row, and the admitted
	// ones ahead of it count as the holders they are about to be.
	adm := e.admitted()
	if ahead < adm {
		return out
	}
	for i := range e.holders {
		if ho := &e.holders[i]; ho.txn != txn && ho.modes.conflictsWith(mode) {
			out = append(out, ho.txn)
		}
	}
	for i, q := range e.queue[:ahead] {
		if q.txn != txn && (i >= adm || !mode.Compatible(q.mode)) {
			out = append(out, q.txn)
		}
	}
	return out
}

// findCycle runs a DFS over the waits-for graph from start and returns a
// cycle through start, or nil. Only waiting transactions have outgoing
// edges, so the graph is tiny compared to the lock table. Requires
// detMu held; shard mutexes are taken one at a time to read edges.
func (m *Manager) findCycle(start TxnID) []TxnID {
	var (
		stack   []TxnID
		visited = make(map[TxnID]bool)
		found   []TxnID
	)
	var dfs func(t TxnID) bool
	dfs = func(t TxnID) bool {
		info, ok := m.reg.get(t)
		if !ok {
			return false
		}
		for _, next := range m.blockersOf(t, info) {
			if next == start {
				found = append(append([]TxnID{}, stack...), t)
				return true
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			stack = append(stack, t)
			if dfs(next) {
				return true
			}
			stack = stack[:len(stack)-1]
		}
		return false
	}
	visited[start] = true
	if dfs(start) {
		return found
	}
	return nil
}

// cycleHasUpgrade reports whether any member of the cycle is waiting on
// a lock conversion — the System R signature of escalation deadlocks.
func (m *Manager) cycleHasUpgrade(cycle []TxnID) bool {
	for _, t := range cycle {
		if info, ok := m.reg.get(t); ok && info.upgrade {
			return true
		}
	}
	return false
}
