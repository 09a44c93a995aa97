package lock

import "sync"

// shard is one partition of the lock table: its own mutex, entry index,
// FIFO queues and a small entry free list. Resources hash onto shards,
// so transactions touching disjoint resources take disjoint mutexes.
// The trailing pad keeps neighbouring shards off one cache line.
type shard struct {
	mu    sync.Mutex
	idx   uint32
	table resTable
	free  []*entry
	_     [64]byte
}

// resTable is the shard's resource → entry index: a linear-probing
// open-addressing table that reuses the splitmix hash the manager
// already computed for shard selection. It replaced the previous
// map[ResourceID]*entry after the BenchmarkShardTable* microbench
// (table_bench_test.go) showed the map spending most of its time
// re-hashing the 24-byte key with its own seed on every operation —
// the open-addressing table is 2–3× faster across resident set sizes
// (numbers in EXPERIMENTS.md). All access happens under the shard
// mutex.
type resTable struct {
	slots []resSlot
	mask  uint64
	n     int // full slots
	dead  int // tombstones
}

// resSlot is one slot of the table.
type resSlot struct {
	key   ResourceID
	val   *entry
	state uint8 // 0 empty, 1 full, 2 tombstone
}

func (t *resTable) init(capHint int) {
	size := 8
	for size < capHint*2 {
		size <<= 1
	}
	t.slots = make([]resSlot, size)
	t.mask = uint64(size - 1)
	t.n, t.dead = 0, 0
}

// get returns the entry of key (whose hash is h), or nil.
func (t *resTable) get(key ResourceID, h uint64) *entry {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.state {
		case 0:
			return nil
		case 1:
			if s.key == key {
				return s.val
			}
		}
	}
}

// put inserts or replaces the entry of key. The load factor stays below
// 3/4 (tombstones included), so probe chains stay short and get always
// terminates on an empty slot.
func (t *resTable) put(key ResourceID, h uint64, v *entry) {
	if (t.n+t.dead)*4 >= len(t.slots)*3 {
		t.grow()
	}
	var free *resSlot
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.state {
		case 0:
			if free == nil {
				free = s
			} else {
				t.dead-- // free points at a reclaimed tombstone
			}
			free.key, free.val, free.state = key, v, 1
			t.n++
			return
		case 1:
			if s.key == key {
				s.val = v
				return
			}
		case 2:
			if free == nil {
				free = s // reuse the first tombstone on the probe path
			}
		}
	}
}

// len returns the number of live entries (test invariants).
func (t *resTable) len() int { return t.n }

// del removes key, leaving a tombstone (reclaimed on the next grow).
func (t *resTable) del(key ResourceID, h uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.state {
		case 0:
			return
		case 1:
			if s.key == key {
				s.val = nil
				s.state = 2
				t.n--
				t.dead++
				return
			}
		}
	}
}

// grow doubles the table — or merely rehashes in place when tombstones,
// not live entries, forced the resize (lock churn leaves many).
func (t *resTable) grow() {
	old := t.slots
	size := len(old) * 2
	if t.n*4 < len(old) {
		size = len(old)
	}
	t.slots = make([]resSlot, size)
	t.mask = uint64(size - 1)
	t.n, t.dead = 0, 0
	for i := range old {
		if old[i].state == 1 {
			t.put(old[i].key, old[i].key.hash(), old[i].val)
		}
	}
}

// entry is one lock-table row: who holds which modes, who waits. A row
// is rarely held by more than two transactions at once — an instance by
// its writer, a class partition by a few intention holders — so holders
// starts out on the inline array and the common grant allocates
// nothing. Lookup is a linear scan and removal a swap-remove: cheaper
// than hashing a TxnID at these sizes, and compatibleWithOthers walks
// every holder anyway.
type entry struct {
	holders []holder
	queue   []*waiter
	inline  [2]holder
}

// holder is one transaction's grants on a row.
type holder struct {
	txn   TxnID
	modes grantSet
}

// find returns the index of txn's holder, or -1.
func (e *entry) find(txn TxnID) int {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// drop swap-removes holder i, clearing the vacated slot so the entry
// keeps no modes alive.
func (e *entry) drop(i int) {
	last := len(e.holders) - 1
	e.holders[i] = e.holders[last]
	e.holders[last] = holder{}
	e.holders = e.holders[:last]
}

// grantSet is the modes one transaction holds on one resource. The
// first mode is stored inline — conversions beyond it are rare, so the
// common single-mode grant allocates nothing.
type grantSet struct {
	first Mode
	rest  []Mode
}

// redundant reports that the set already holds mode (or a covering one).
func (g *grantSet) redundant(mode Mode) bool {
	if g.first == nil {
		return false
	}
	if g.first == mode || covers(g.first, mode) {
		return true
	}
	for _, h := range g.rest {
		if h == mode || covers(h, mode) {
			return true
		}
	}
	return false
}

// conflictsWith reports that some held mode is incompatible with mode.
func (g *grantSet) conflictsWith(mode Mode) bool {
	if g.first == nil {
		return false
	}
	if !mode.Compatible(g.first) {
		return true
	}
	for _, h := range g.rest {
		if !mode.Compatible(h) {
			return true
		}
	}
	return false
}

// add appends a mode to the set.
func (g *grantSet) add(mode Mode) {
	if g.first == nil {
		g.first = mode
		return
	}
	g.rest = append(g.rest, mode)
}

// len returns the number of modes in the set.
func (g *grantSet) len() int {
	if g.first == nil {
		return 0
	}
	return 1 + len(g.rest)
}

// waiter is a queued request's place in one row's queue; a request
// queued on several rows has a waiter on each. Waiters are pooled: the
// ready channel is reused, which is safe because the request drains it
// before it recycles its waiters.
type waiter struct {
	txn     TxnID
	mode    Mode
	upgrade bool
	// lead is the request's first waiter (for that one, itself): its
	// ready channel is where promote rings.
	lead  *waiter
	ready chan struct{} // buffered(1)
}

// newEntry takes an entry off the shard free list (or allocates one).
// Requires sh.mu held.
func (sh *shard) newEntry() *entry {
	if n := len(sh.free); n > 0 {
		e := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return e
	}
	e := &entry{}
	e.holders = e.inline[:0]
	return e
}

// freeEntry returns a drained entry to the free list. Requires sh.mu
// held and the entry empty.
func (sh *shard) freeEntry(e *entry) {
	e.queue = nil // the queue head may have advanced; drop it
	sh.free = append(sh.free, e)
}

// grant records mode for txn on res (i is txn's holder index in e, -1
// if it holds nothing there). A first grant on res also goes into the
// transaction's held set, flagging this shard in its bitmask. Requires
// sh.mu held.
func (sh *shard) grant(e *entry, i int, txn TxnID, state *txnState, res ResourceID, mode Mode) {
	if i >= 0 {
		e.holders[i].modes.add(mode)
		return
	}
	e.holders = append(e.holders, holder{txn: txn, modes: grantSet{first: mode}})
	state.held[sh.idx] = append(state.held[sh.idx], res)
	state.shards |= 1 << sh.idx
}

// settle runs after holders or waiters left the row of res: it admits
// whatever the queue now allows and recycles the entry once nobody holds
// or waits for it. It reports whether it rang a waiter. Requires sh.mu
// held.
func (sh *shard) settle(e *entry, res ResourceID, h uint64) bool {
	if len(e.queue) > 0 {
		return e.promote()
	}
	if len(e.holders) == 0 {
		sh.table.del(res, h)
		sh.freeEntry(e)
	}
	return false
}

// modesOf returns txn's grant set on the row of res (whose hash is h),
// or nil if it holds nothing there. Requires sh.mu held.
func (sh *shard) modesOf(txn TxnID, res ResourceID, h uint64) *grantSet {
	if e := sh.table.get(res, h); e != nil {
		if i := e.find(txn); i >= 0 {
			return &e.holders[i].modes
		}
	}
	return nil
}

// compatibleWithOthers reports whether mode is compatible with every
// mode granted to *other* transactions (self-held modes never block a
// conversion). Requires sh.mu held.
func (e *entry) compatibleWithOthers(txn TxnID, mode Mode) bool {
	for i := range e.holders {
		if h := &e.holders[i]; h.txn != txn && h.modes.conflictsWith(mode) {
			return false
		}
	}
	return true
}

// fits reports whether a request of txn for mode, behind the first k
// waiters of the queue, is compatible with every other transaction's
// holdings and with each of those waiters. Requires sh.mu held.
func (e *entry) fits(k int, txn TxnID, mode Mode) bool {
	if !e.compatibleWithOthers(txn, mode) {
		return false
	}
	for _, w := range e.queue[:k] {
		if w.txn != txn && !mode.Compatible(w.mode) {
			return false
		}
	}
	return true
}

// admitted returns how many waiters at the head of the queue the row
// admits: each fits behind the ones before it, so all of them may hold
// their modes together with the holders. An admitted waiter is a holder
// that has not written its grant yet — it waits for nothing on this row
// — and its request takes the grant as soon as every one of its rows
// admits it (Manager.wait). Strict FIFO, which prevents starvation,
// stops at the first waiter that does not fit. Requires sh.mu held.
func (e *entry) admitted() int {
	for k, w := range e.queue {
		if !e.fits(k, w.txn, w.mode) {
			return k
		}
	}
	return len(e.queue)
}

// enqueue inserts w into the FIFO queue — conversions ahead of plain
// requests, behind conversions already waiting. Requires sh.mu held.
func (e *entry) enqueue(w *waiter) {
	if !w.upgrade {
		e.queue = append(e.queue, w)
		return
	}
	i := 0
	for i < len(e.queue) && e.queue[i].upgrade {
		i++
	}
	e.queue = append(e.queue, nil)
	copy(e.queue[i+1:], e.queue[i:])
	e.queue[i] = w
}

// removeWaiter deletes w from the queue. Requires sh.mu held.
func (e *entry) removeWaiter(w *waiter) {
	for i, x := range e.queue {
		if x == w {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// promote tells every waiter the row admits that its request may be
// grantable: it rings each one's lead, and each request grants itself
// once all its rows admit it (Manager.wait), without waiting for the
// others — a batch of compatible waiters is let in together. It grants
// nothing, and reports whether it rang a request that had not been rung
// yet. Requires sh.mu held.
func (e *entry) promote() (rang bool) {
	for _, w := range e.queue[:e.admitted()] {
		select {
		case w.lead.ready <- struct{}{}:
			rang = true
		default: // already rung
		}
	}
	return rang
}
