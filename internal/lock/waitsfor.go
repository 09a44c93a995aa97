package lock

import "sync"

// waitInfo is the registry's snapshot of one blocked request. Detection
// reads the copied fields, never the live waiter (which is pooled and
// may be recycled the moment it leaves the registry); the pointer is
// kept only for identity checks against queue slots. A sweep (see
// Manager.sweep) is queued on every partition of res at once: parts
// holds its waiter on each, and w is unused.
type waitInfo struct {
	w       *waiter
	res     ResourceID
	mode    Mode
	upgrade bool
	parts   *[classPartitions]*waiter
}

// waitRegistry is the dedicated waits-for structure: every blocked
// transaction, under its own mutex. It is updated only on block and
// unblock — the slow path — so the grant hot path never touches it.
// Lock order: a shard mutex may be held when taking reg.mu (promote);
// reg.mu is a leaf and is never held across shard or detection locks.
type waitRegistry struct {
	mu      sync.Mutex
	waiting map[TxnID]waitInfo
}

func (r *waitRegistry) add(txn TxnID, w *waiter) {
	r.mu.Lock()
	r.waiting[txn] = waitInfo{w: w, res: w.res, mode: w.mode, upgrade: w.upgrade}
	r.mu.Unlock()
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

// detectDeadlock runs after w was enqueued and published to the
// registry. Detections are serialized by detMu, so for any stable cycle
// the last transaction to publish its edge sees the whole cycle and
// victimizes itself; earlier publishers see no cycle and sleep. The
// victim has acquired nothing new, so aborting it is always safe.
//
// A nil return means "no deadlock involving this request" — either no
// cycle, or the request was granted while we looked (the caller then
// consumes the grant).
func (m *Manager) detectDeadlock(txn TxnID, w *waiter, sh *shard) error {
	m.detMu.Lock()
	if info, ok := m.reg.get(txn); !ok || info.w != w {
		m.detMu.Unlock() // granted before detection started
		return nil
	}
	cycle := m.findCycle(txn)
	if cycle == nil {
		m.detMu.Unlock()
		return nil
	}
	// Victimize self — unless a concurrent release granted us while the
	// DFS ran, in which case the observed cycle dissolved.
	sh.mu.Lock()
	e := sh.table.get(w.res, w.res.hash())
	if e == nil || !e.removeWaiter(w) {
		sh.mu.Unlock()
		m.detMu.Unlock()
		return nil
	}
	m.reg.remove(txn)
	m.stats.deadlocks.Add(1)
	// The victim is already deregistered, so its own conversion flag must
	// be checked directly alongside its peers'.
	esc := w.upgrade || m.cycleHasUpgrade(cycle)
	if esc {
		m.stats.escalationDeadlocks.Add(1)
	}
	sh.settle(m, e, w.res, w.res.hash())
	sh.mu.Unlock()
	m.detMu.Unlock()
	m.recycleWaiter(w)
	return &DeadlockError{Txn: txn, Cycle: cycle, Escalation: esc}
}

// detectSweepDeadlock is detectDeadlock for a sweep queued on every
// partition as ws, and published. Only the sweep itself grants its
// parts, so they are all still queued: a victim sweep leaves every
// queue, holding nothing it did not hold before — unless it has become
// grantable while the DFS ran, in which case the cycle dissolved.
func (m *Manager) detectSweepDeadlock(txn TxnID, p *parts, ws *[classPartitions]*waiter) error {
	m.detMu.Lock()
	defer m.detMu.Unlock()
	cycle := m.findCycle(txn)
	if cycle == nil {
		return nil
	}
	esc := ws[0].upgrade || m.cycleHasUpgrade(cycle)
	p.lock()
	e := p.entries()
	if grantable(e[:], ws) {
		p.unlock() // the ring that made it so is pending
		return nil
	}
	m.unqueue(p, e[:], ws)
	m.reg.remove(txn)
	p.unlock()
	m.recycleParts(ws)
	m.stats.deadlocks.Add(1)
	if esc {
		m.stats.escalationDeadlocks.Add(1)
	}
	return &DeadlockError{Txn: txn, Cycle: cycle, Escalation: esc}
}

// blockersOf returns the transactions the registered request waits for:
// incompatible holders of the resource plus every waiter queued ahead of
// it (FIFO admission means they must leave first) — for a sweep, on
// every partition it is queued on.
func (m *Manager) blockersOf(txn TxnID, info waitInfo) []TxnID {
	if info.parts == nil {
		return m.rowBlockers(txn, info.w, info.res, info.mode, nil)
	}
	var out []TxnID
	for i, w := range info.parts {
		out = m.rowBlockers(txn, w, partition(info.res, i), info.mode, out)
	}
	return out
}

// rowBlockers appends to out the blockers of txn's waiter w on the row
// of res. It locks only the one shard owning the row.
func (m *Manager) rowBlockers(txn TxnID, w *waiter, res ResourceID, mode Mode, out []TxnID) []TxnID {
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table.get(res, h)
	if e == nil {
		return out
	}
	// The registry snapshot may be stale: if the waiter was granted (or
	// removed) since the DFS read it, the wait has dissolved and reporting
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
	if ahead < 0 {
		return out
	}
	for i := range e.holders {
		if h := &e.holders[i]; h.txn != txn && h.modes.conflictsWith(mode) {
			out = append(out, h.txn)
		}
	}
	for _, q := range e.queue[:ahead] {
		if q.txn != txn {
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
