package lock

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TxnID identifies a transaction to the lock manager. IDs are assigned
// monotonically by the transaction manager, so a smaller ID is an older
// transaction.
type TxnID uint64

// DeadlockError is returned by Acquire when granting the request would
// close a cycle in the waits-for graph. The requester is the victim (it
// has acquired nothing new, so aborting it is always safe and the cycle
// is broken before anyone sleeps on it).
type DeadlockError struct {
	Txn        TxnID
	Cycle      []TxnID
	Escalation bool // some request in the cycle was a lock conversion
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("lock: deadlock detected for txn %d (cycle %v, escalation=%v)",
		e.Txn, e.Cycle, e.Escalation)
}

// IsDeadlock reports whether err is (or wraps) a deadlock abort.
func IsDeadlock(err error) bool {
	var d *DeadlockError
	return errors.As(err, &d)
}

// ErrTimeout is returned when a configured wait timeout elapses.
var ErrTimeout = errors.New("lock: wait timeout")

// ErrCanceled is returned by AcquireWaitDone when the caller's
// cancellation channel fires before the lock is granted. Unlike
// ErrTimeout it is not retryable: the caller gave up, the lock manager
// didn't.
var ErrCanceled = errors.New("lock: wait canceled")

// Stats are cumulative lock-manager counters. They feed the paper-shape
// experiments: Requests and Blocks quantify the locking-overhead problem
// (section 3, problem "locking overhead"), Upgrades and
// EscalationDeadlocks the System R escalation problem, Deadlocks the
// overall effect.
type Stats struct {
	Requests            int64 // Acquire calls
	Reentrant           int64 // already held in the same mode
	ImmediateGrants     int64
	Blocks              int64 // had to queue
	Upgrades            int64 // conversion requests (held ≠ requested on same resource)
	Deadlocks           int64
	EscalationDeadlocks int64
	Timeouts            int64
	Releases            int64 // ReleaseAll calls
}

// statsCounters is Stats with atomic cells, so the hot path never takes
// a lock to count and Snapshot never takes a table lock to read. The
// same cells are the registry's series (RegisterMetrics). Requests has
// no cell: every Acquire is counted once as reentrant, an immediate
// grant or a block, so Snapshot adds those up.
type statsCounters struct {
	reentrant           obs.Counter
	immediateGrants     obs.Counter
	blocks              obs.Counter
	upgrades            obs.Counter
	deadlocks           obs.Counter
	escalationDeadlocks obs.Counter
	timeouts            obs.Counter
	releases            obs.Counter
}

// Sharding parameters. The shard bitmap of a transaction is a single
// uint64, which caps the shard count at 64 — plenty: shards only need to
// outnumber cores, not resources.
const (
	defaultShardCount = 64
	maxShardCount     = 64
	txnStripeCount    = 64
)

// classPartitions is how many lock-table rows one class or relation
// lock is striped over. Every send of the paper's protocol takes an
// intentional lock on its receiver's class, and every baseline send
// takes IS or IX there, so a single class row would see every
// transaction of the class and its shard mutex would serialize them all.
// Instead such a lock lives in classPartitions rows, its partitions: the
// caller's ResourceID with Field — −1 on these kinds — set to the
// partition number, so the rows hash onto different shards. A request
// covers a set of rows (rowsOf): an intention mode (IsIntention) only
// the requester's own partition, chosen by TxnID, and every other mode
// all of them. That is sound because the intention modes that can meet
// on one resource are pairwise compatible (section 5.2: "two
// intentional locks always coexist"), so every conflict involves a
// non-intention mode, and that mode covers every partition.
//
// Nothing above the lock manager sees a partition: an Acquire counts
// once in Stats, Holds/HeldModes/LocksHeld report the logical lock, and
// a request is granted on all its rows at once or on none, so it keeps
// the logical lock's FIFO place and conversion priority, and its
// waits-for edges are the logical lock's.
const classPartitions = 8

// partitioned reports whether res is a class or relation granule,
// locked through classPartitions rows.
func partitioned(res ResourceID) bool { return res.Kind == KindClass || res.Kind == KindRelation }

// partition returns row i of the partitioned resource res.
func partition(res ResourceID, i int) ResourceID {
	res.Field = int32(i)
	return res
}

// ownRow is the row of res that carries txn's lock on it: the resource
// itself, or for a partitioned one the transaction's own partition,
// which holds every mode the transaction has on the class — its
// intention modes there only, the others on every partition.
func ownRow(txn TxnID, res ResourceID) ResourceID {
	if partitioned(res) {
		return partition(res, int(uint64(txn)%classPartitions))
	}
	return res
}

// Manager is the lock table, partitioned into power-of-two shards keyed
// by a hash of the ResourceID: acquires on distinct resources land on
// distinct shards and never contend, and class locks are spread over
// several rows (classPartitions) so that the one hot class of a
// workload does not pin every transaction to one shard. Every request
// is a set of rows, locked, granted and queued together, and a queued
// request grants itself (wait). Per-transaction held-lock tracking lives
// in txn-owned states (found via a striped registry), so ReleaseAll
// touches only the shards the transaction actually holds locks in.
// Deadlock detection runs off the hot path against a dedicated
// waits-for registry updated only when a request queues and leaves.
//
// A Manager is safe for concurrent use by many transactions, but one
// TxnID's calls — Acquire and its variants, ReleaseAll, LocksHeld — must
// not overlap: a transaction issues them one at a time, as a
// transaction run by one goroutine does. The transaction's lock
// bookkeeping relies on it (txnState).
//
// The zero value is not usable; construct with NewManager.
type Manager struct {
	shards    []shard
	shardMask uint64

	stripes [txnStripeCount]txnStripe

	reg   waitRegistry // blocked transactions (slow path only)
	detMu sync.Mutex   // serializes deadlock detection and victim choice

	stats statsCounters

	// waitHist, when set (RegisterMetrics), receives the wall time of
	// every blocking acquire (queue wait through grant, deadlock abort, or
	// timeout). Atomic so it can be attached after construction without
	// racing in-flight acquires; nil (the default) costs one predictable
	// branch on the block path and nothing on the grant fast path.
	waitHist atomic.Pointer[obs.Hist]

	waiterPool sync.Pool
	statePool  sync.Pool

	// WaitTimeout, when positive, bounds every blocking Acquire. Deadlock
	// detection makes it unnecessary for correctness; it is a test guard.
	// Set before concurrent use.
	WaitTimeout time.Duration
}

// NewManager returns an empty lock table with the default shard count.
func NewManager() *Manager { return NewManagerShards(defaultShardCount) }

// NewManagerShards returns an empty lock table with n shards, rounded up
// to a power of two and clamped to [1, 64]. Lower counts are useful in
// tests (a single shard reproduces the unsharded table); the default
// suits production.
func NewManagerShards(n int) *Manager {
	if n < 1 {
		n = 1
	}
	if n > maxShardCount {
		n = maxShardCount
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	m := &Manager{
		shards:    make([]shard, n),
		shardMask: uint64(n - 1),
	}
	for i := range m.shards {
		m.shards[i].idx = uint32(i)
		m.shards[i].table.init(8)
	}
	m.reg.waiting = make(map[TxnID]waitInfo)
	m.waiterPool.New = func() any { return &waiter{ready: make(chan struct{}, 1)} }
	m.statePool.New = func() any { return &txnState{} }
	return m
}

// shardFor maps a resource to its shard, returning the hash too: the
// shard's open-addressing entry index reuses it, so the resource is
// hashed exactly once per operation.
func (m *Manager) shardFor(res ResourceID) (*shard, uint64) {
	h := res.hash()
	return m.shard(h), h
}

// shard returns the shard of the resource whose hash is h.
func (m *Manager) shard(h uint64) *shard { return &m.shards[h&m.shardMask] }

// txnState is the txn-owned lock bookkeeping: which shards the
// transaction holds locks in (a bitmask, set on first grant per shard)
// and, per shard, which resources. Only the transaction's own requests
// grant it anything, and they do not overlap (Manager), so its state is
// plain memory: grant writes it under whichever shard mutex it holds,
// and ReleaseAll and LocksHeld read it without one.
type txnState struct {
	txn    TxnID
	shards uint64
	held   [maxShardCount][]ResourceID
}

// txnStripe is one stripe of the txn → state registry: the states of
// the live transactions whose IDs fall on it. Transactions get
// sequential IDs, so a stripe holds one or two at a time and a scan
// beats a map; and the two transactions that overlap, n and n+1, land on
// adjacent stripes, which the trailing pad keeps on separate cache lines.
type txnStripe struct {
	mu   sync.Mutex
	live []*txnState
	_    [64]byte
}

// find returns the index of txn's state, or -1. Requires st.mu held.
func (st *txnStripe) find(txn TxnID) int {
	for i, s := range st.live {
		if s.txn == txn {
			return i
		}
	}
	return -1
}

// take swap-removes and returns state i. Requires st.mu held.
func (st *txnStripe) take(i int) *txnState {
	s := st.live[i]
	last := len(st.live) - 1
	st.live[i] = st.live[last]
	st.live[last] = nil
	st.live = st.live[:last]
	return s
}

func (m *Manager) stripeFor(txn TxnID) *txnStripe {
	return &m.stripes[uint64(txn)%txnStripeCount]
}

// stateFor returns the transaction's state, creating it on first use.
func (m *Manager) stateFor(txn TxnID) *txnState {
	st := m.stripeFor(txn)
	st.mu.Lock()
	var s *txnState
	if i := st.find(txn); i >= 0 {
		s = st.live[i]
	} else {
		s = m.statePool.Get().(*txnState)
		s.txn = txn
		st.live = append(st.live, s)
	}
	st.mu.Unlock()
	return s
}

// lookupState returns the transaction's state or nil.
func (m *Manager) lookupState(txn TxnID) *txnState {
	st := m.stripeFor(txn)
	st.mu.Lock()
	var s *txnState
	if i := st.find(txn); i >= 0 {
		s = st.live[i]
	}
	st.mu.Unlock()
	return s
}

// takeState removes and returns the transaction's state (nil if none).
func (m *Manager) takeState(txn TxnID) *txnState {
	st := m.stripeFor(txn)
	st.mu.Lock()
	var s *txnState
	if i := st.find(txn); i >= 0 {
		s = st.take(i)
	}
	st.mu.Unlock()
	return s
}

// dropStateIfEmpty recycles the state of a transaction that holds no
// locks (a deadlock victim aborted on its very first request).
func (m *Manager) dropStateIfEmpty(txn TxnID) {
	st := m.stripeFor(txn)
	st.mu.Lock()
	var s *txnState
	if i := st.find(txn); i >= 0 && st.live[i].shards == 0 {
		s = st.take(i)
	}
	st.mu.Unlock()
	if s != nil {
		m.statePool.Put(s)
	}
}

// Acquire blocks until txn holds mode on res, following strict 2PL:
// locks accumulate until ReleaseAll. Re-acquiring an identical mode is a
// no-op. Requesting a second, different mode on a resource the
// transaction already locks is a conversion: it bypasses the FIFO queue
// (classical upgrade priority) but still waits for incompatible holders.
// If waiting would close a waits-for cycle, Acquire aborts the request
// with *DeadlockError instead of sleeping.
func (m *Manager) Acquire(txn TxnID, res ResourceID, mode Mode) error {
	_, err := m.AcquireWait(txn, res, mode)
	return err
}

// AcquireWait is Acquire, additionally reporting how long the request
// waited in the queue (0 for reentrant and immediately granted
// requests). Callers instrumenting lock convoys (the engine's flight
// recorder) use the duration; everyone else goes through Acquire.
func (m *Manager) AcquireWait(txn TxnID, res ResourceID, mode Mode) (time.Duration, error) {
	return m.AcquireWaitDone(txn, res, mode, nil)
}

// AcquireWaitDone is AcquireWait bounded by a cancellation channel: if
// done fires while the request is queued, the request is withdrawn and
// ErrCanceled returned. The fast path (reentrant or immediate grant)
// never consults done — cancellation is only observed at points where
// the request would sleep, matching context semantics on the facade. A
// nil done is exactly AcquireWait.
//
// The request holds the shard mutexes of all its rows together and is
// either granted on every one — each compatible with the holders and,
// unless the request is a conversion, each admitting every waiter
// queued there and the request behind them — or queued on every one
// (block). If txn already holds the resource the request is a
// conversion on every row. It must not overlap another call for the
// same txn (Manager).
func (m *Manager) AcquireWaitDone(txn TxnID, res ResourceID, mode Mode, done <-chan struct{}) (time.Duration, error) {
	var r rows
	m.rowsOf(&r, txn, res, mode)
	m.lock(&r)
	for i := 0; i < r.n; i++ {
		sh := m.shard(r.h[i])
		if r.e[i] = sh.table.get(r.res[i], r.h[i]); r.e[i] == nil {
			r.e[i] = sh.newEntry()
			sh.table.put(r.res[i], r.h[i], r.e[i])
		}
	}
	// The own row holds every mode txn has on the resource, and the
	// other rows differ from it only by intention modes, which never
	// cover a non-intention one.
	own := r.e[0]
	j := own.find(txn)
	if j >= 0 && own.holders[j].modes.redundant(mode) {
		m.unlock(&r)
		m.stats.reentrant.Add(1)
		return 0, nil
	}
	upgrade := j >= 0
	if upgrade {
		m.stats.upgrades.Add(1)
	}
	state := m.stateFor(txn)
	if r.grantable(txn, mode, upgrade) {
		for i := 0; i < r.n; i++ {
			m.shard(r.h[i]).grant(r.e[i], r.e[i].find(txn), txn, state, r.res[i], mode)
		}
		m.unlock(&r)
		m.stats.immediateGrants.Add(1)
		return 0, nil
	}
	return m.block(txn, res, mode, upgrade, &r, state, done)
}

// rows is the set of lock-table rows one request covers, with their
// hashes and entries, and the bitmask of the shards that own them:
// row 0 is the requester's own row (ownRow), and a non-intention mode on
// a partitioned resource covers every partition, the requester's own
// first. The request locks the shards in ascending order (lock); no
// other path holds two shard mutexes, so requests cannot deadlock on
// them.
type rows struct {
	n      int
	shards uint64
	res    [classPartitions]ResourceID
	h      [classPartitions]uint64
	e      [classPartitions]*entry
}

// rowsOf fills r, whose shards must be empty, with the rows txn's
// request for mode on res covers: row i is the row of res that the
// i-th transaction after txn would own.
func (m *Manager) rowsOf(r *rows, txn TxnID, res ResourceID, mode Mode) {
	r.n = 1
	if partitioned(res) && !IsIntention(mode) {
		r.n = classPartitions
	}
	for i := 0; i < r.n; i++ {
		r.res[i] = ownRow(txn+TxnID(i), res)
		r.h[i] = r.res[i].hash()
		r.shards |= 1 << (r.h[i] & m.shardMask)
	}
}

func (m *Manager) lock(r *rows) {
	for s := r.shards; s != 0; s &= s - 1 {
		m.shards[bits.TrailingZeros64(s)].mu.Lock()
	}
}

func (m *Manager) unlock(r *rows) {
	for s := r.shards; s != 0; s &= s - 1 {
		m.shards[bits.TrailingZeros64(s)].mu.Unlock()
	}
}

// grantable reports whether txn's new request for mode may be granted on
// every row at once: each row admits every waiter queued there and the
// request behind them — or, for a conversion, which bypasses the queue,
// the request alone. Requires r locked.
func (r *rows) grantable(txn TxnID, mode Mode, upgrade bool) bool {
	for _, e := range r.e[:r.n] {
		if len(e.queue) == 0 || upgrade {
			if !e.compatibleWithOthers(txn, mode) {
				return false
			}
		} else if e.admitted() < len(e.queue) || !e.fits(len(e.queue), txn, mode) {
			return false
		}
	}
	return true
}

// admits reports whether every row admits the request queued as ws.
// Requires r locked.
func (r *rows) admits(ws *[classPartitions]*waiter) bool {
	for i, e := range r.e[:r.n] {
		if !slices.Contains(e.queue[:e.admitted()], ws[i]) {
			return false
		}
	}
	return true
}

// block queues txn's request on every row of r, which the caller has
// locked and found busy, publishes it to the waits-for registry and
// waits for it. Every waiter names the first as its lead: promote rings
// the lead's ready channel when a row comes to admit any of them.
func (m *Manager) block(txn TxnID, res ResourceID, mode Mode, upgrade bool, r *rows, state *txnState, done <-chan struct{}) (time.Duration, error) {
	var ws [classPartitions]*waiter
	for i := 0; i < r.n; i++ {
		w := m.waiterPool.Get().(*waiter)
		ws[i] = w
		w.txn, w.mode, w.upgrade, w.lead = txn, mode, upgrade, ws[0]
		r.e[i].enqueue(w)
	}
	m.reg.put(txn, waitInfo{res: res, mode: mode, upgrade: upgrade, ws: ws})
	m.unlock(r)
	m.stats.blocks.Add(1)
	start := time.Now()
	err := m.wait(txn, mode, r, &ws, state, done)
	d := time.Since(start)
	if hist := m.waitHist.Load(); hist != nil {
		hist.Record(d)
	}
	if err != nil {
		m.dropStateIfEmpty(txn) // it may have been the transaction's first request
	}
	return d, err
}

// grantSpins is how many times a queued request yields the processor
// and looks for its grant before it goes to sleep. In a main-memory
// engine the holder is usually a few microseconds from its commit, far
// less than putting a thread to sleep and waking it costs — and every
// such wake-up is a fresh chance for the operating system to place the
// thread badly. Each round is a Gosched, so on one processor the holder
// (or anyone else runnable) gets it; 32 rounds with nobody else to run
// take about 6 µs, a short transaction or two.
const grantSpins = 32

// wait runs the slow half of an acquire after block queued the request
// as ws on the rows r. First deadlock detection: detections are
// serialized by detMu, so for any stable cycle the last transaction to
// publish its edge sees the whole cycle and victimizes itself; earlier
// publishers see no cycle and wait. Then the wait proper: promote rings
// ws[0] whenever a row comes to admit one of the waiters, and each ring
// is a look under all the rows' mutexes. Once every row admits the
// request it leaves the queues and is granted on every row at once;
// that changes no row's admitted waiters, so it rings nobody. A
// deadlock, a timeout or a cancellation instead takes it off every
// queue, holding nothing it did not hold before, and returns the cause
// — unless the request is grantable by then, and then the grant wins.
func (m *Manager) wait(txn TxnID, mode Mode, r *rows, ws *[classPartitions]*waiter, state *txnState, done <-chan struct{}) error {
	timeout := m.deadline()
	var cause error
	m.detMu.Lock()
	if cycle := m.findCycle(txn); cycle != nil {
		// The victim keeps detMu until it has left every queue.
		cause = &DeadlockError{Txn: txn, Cycle: cycle, Escalation: ws[0].upgrade || m.cycleHasUpgrade(cycle)}
	} else {
		m.detMu.Unlock()
	}
	victim := cause != nil
	for spins := 0; ; spins++ {
		if cause == nil {
			select {
			case <-ws[0].ready:
			default:
				if spins < grantSpins {
					runtime.Gosched()
					continue
				}
				select {
				case <-ws[0].ready:
				case <-timeout:
					cause = ErrTimeout
				case <-done:
					cause = ErrCanceled
				}
			}
		}
		m.lock(r)
		if r.admits(ws) {
			for i, e := range r.e[:r.n] {
				e.removeWaiter(ws[i])
				m.shard(r.h[i]).grant(e, e.find(txn), txn, state, r.res[i], mode)
			}
			cause = nil
		} else if cause == nil {
			m.unlock(r)
			continue
		} else {
			for i, e := range r.e[:r.n] {
				e.removeWaiter(ws[i])
				m.shard(r.h[i]).settle(e, r.res[i], r.h[i])
			}
			if cause == ErrTimeout {
				m.stats.timeouts.Add(1)
			}
			if d, ok := cause.(*DeadlockError); ok {
				m.stats.deadlocks.Add(1)
				if d.Escalation {
					m.stats.escalationDeadlocks.Add(1)
				}
			}
		}
		m.reg.remove(txn)
		m.unlock(r)
		if victim {
			m.detMu.Unlock()
		}
		// No waiter is queued any more, so no ring can follow: clearing
		// the one that may be pending leaves the lead's channel empty for
		// its next user.
		select {
		case <-ws[0].ready:
		default:
		}
		for _, w := range ws[:r.n] {
			w.mode, w.lead = nil, nil
			m.waiterPool.Put(w)
		}
		return cause
	}
}

// deadline returns a channel that fires once WaitTimeout has passed, or
// nil — which never fires — when no timeout is set.
func (m *Manager) deadline() <-chan time.Time {
	if m.WaitTimeout <= 0 {
		return nil
	}
	return time.After(m.WaitTimeout)
}

// Holds reports whether txn currently holds mode on res.
func (m *Manager) Holds(txn TxnID, res ResourceID, mode Mode) bool {
	res = ownRow(txn, res)
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g := sh.modesOf(txn, res, h)
	if g == nil {
		return false
	}
	if g.first == mode {
		return true
	}
	for _, x := range g.rest {
		if x == mode {
			return true
		}
	}
	return false
}

// HeldModes returns the modes txn holds on res (nil if none).
func (m *Manager) HeldModes(txn TxnID, res ResourceID) []Mode {
	res = ownRow(txn, res)
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	g := sh.modesOf(txn, res, h)
	if g == nil {
		return nil
	}
	out := make([]Mode, 0, g.len())
	out = append(out, g.first)
	return append(out, g.rest...)
}

// LocksHeld returns the number of (resource, mode) locks txn holds. A
// class lock counts once, on the transaction's own partition.
func (m *Manager) LocksHeld(txn TxnID) int {
	s := m.lookupState(txn)
	if s == nil {
		return 0
	}
	n := 0
	mask := s.shards
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, res := range s.held[i] {
			if res != ownRow(txn, res) {
				continue // a class lock's other partitions repeat its modes
			}
			if g := sh.modesOf(txn, res, res.hash()); g != nil {
				n += g.len()
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// ReleaseAll drops every lock of txn — the single release point of
// strict two-phase locking — and wakes whatever the FIFO discipline now
// admits. Only the shards the transaction holds locks in are touched.
//
// A release that rang a waiter hands the processor to it. The rung
// goroutine is next on the releaser's own run queue, and it still has
// to take its rows' shard mutexes and grant itself (wait); if the
// releaser ran on — into its next transaction, often for the same hot
// resource — the waiter would sit there until an idle processor woke
// up and stole it, a delay set by the operating system, during which
// everyone else queues behind a request that is not running. Yielding
// lets the waiter grant itself at once and leaves the releaser, which
// holds nothing, for the other processor.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.stats.releases.Add(1)
	s := m.takeState(txn)
	if s == nil {
		return
	}
	woke := false
	mask := s.shards
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, res := range s.held[i] {
			h := res.hash()
			e := sh.table.get(res, h)
			if e == nil {
				continue
			}
			if j := e.find(txn); j >= 0 {
				e.drop(j)
			}
			if sh.settle(e, res, h) {
				woke = true
			}
		}
		s.held[i] = s.held[i][:0]
		sh.mu.Unlock()
	}
	s.shards = 0
	m.statePool.Put(s)
	if woke {
		runtime.Gosched()
	}
}

// Snapshot returns a copy of the counters. It reads atomics only and
// never blocks behind the lock table.
func (m *Manager) Snapshot() Stats {
	s := Stats{
		Reentrant:           m.stats.reentrant.Load(),
		ImmediateGrants:     m.stats.immediateGrants.Load(),
		Blocks:              m.stats.blocks.Load(),
		Upgrades:            m.stats.upgrades.Load(),
		Deadlocks:           m.stats.deadlocks.Load(),
		EscalationDeadlocks: m.stats.escalationDeadlocks.Load(),
		Timeouts:            m.stats.timeouts.Load(),
		Releases:            m.stats.releases.Load(),
	}
	s.Requests = s.Reentrant + s.ImmediateGrants + s.Blocks
	return s
}

// RegisterMetrics exports every Stats counter as a series of reg and
// attaches the wait-time histogram the counters alone cannot express
// (Blocks says how often, not how long). Call once per registry.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	m.waitHist.Store(reg.Histogram("favcc_lock_wait_seconds",
		"Lock-manager queue wait per blocking acquire.", "", true))
	reg.CounterFunc("favcc_lock_requests_total", "Lock acquire calls.", "", func() int64 { return m.Snapshot().Requests })
	reg.RegisterCounter("favcc_lock_blocks_total", "Acquires that queued.", "", &m.stats.blocks)
	reg.RegisterCounter("favcc_lock_deadlocks_total", "Deadlock victims.", "", &m.stats.deadlocks)
	reg.RegisterCounter("favcc_lock_timeouts_total", "Lock-wait timeouts.", "", &m.stats.timeouts)
	reg.RegisterCounter("favcc_lock_upgrades_total", "Lock conversion requests.", "", &m.stats.upgrades)
	reg.RegisterCounter("favcc_lock_reentrant_total", "Acquires of a mode already held.", "", &m.stats.reentrant)
	reg.RegisterCounter("favcc_lock_immediate_grants_total", "Acquires granted without queueing.", "", &m.stats.immediateGrants)
	reg.RegisterCounter("favcc_lock_escalation_deadlocks_total", "Deadlock victims whose cycle includes a lock conversion.", "", &m.stats.escalationDeadlocks)
	reg.RegisterCounter("favcc_lock_releases_total", "ReleaseAll calls.", "", &m.stats.releases)
}

// Coverer is an optional Mode extension: h.Covers(req) reports that
// holding h makes acquiring req redundant (e.g. X covers S). Without it,
// only identical modes are treated as re-entrant.
type Coverer interface {
	Covers(req Mode) bool
}

func covers(h, req Mode) bool {
	if c, ok := h.(Coverer); ok {
		return c.Covers(req)
	}
	return false
}
