package lock

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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
// a lock to count and Snapshot never takes a table lock to read.
type statsCounters struct {
	requests            atomic.Int64
	reentrant           atomic.Int64
	immediateGrants     atomic.Int64
	blocks              atomic.Int64
	upgrades            atomic.Int64
	deadlocks           atomic.Int64
	escalationDeadlocks atomic.Int64
	timeouts            atomic.Int64
	releases            atomic.Int64
}

// Sharding parameters. The shard bitmap of a transaction is a single
// uint64, which caps the shard count at 64 — plenty: shards only need to
// outnumber cores, not resources.
const (
	defaultShardCount = 64
	maxShardCount     = 64
	txnStripeCount    = 64
)

// Manager is the lock table, partitioned into power-of-two shards keyed
// by a hash of the ResourceID: acquires on distinct resources land on
// distinct shards and never contend. Per-transaction held-lock tracking
// lives in txn-owned states (found via a striped registry), so
// ReleaseAll touches only the shards the transaction actually holds
// locks in. Deadlock detection runs off the hot path against a
// dedicated waits-for registry updated only on block/unblock.
//
// The zero value is not usable; construct with NewManager.
type Manager struct {
	shards    []shard
	shardMask uint64

	stripes [txnStripeCount]txnStripe

	reg   waitRegistry // blocked transactions (slow path only)
	detMu sync.Mutex   // serializes deadlock detection and victim choice

	stats statsCounters

	// waitHist, when set, receives the wall time of every blocking
	// acquire (queue wait through grant, deadlock abort, or timeout).
	// Atomic so it can be attached after construction without racing
	// in-flight acquires; nil (the default) costs one predictable
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
	for i := range m.stripes {
		m.stripes[i].m = make(map[TxnID]*txnState)
	}
	m.reg.waiting = make(map[TxnID]waitInfo)
	m.waiterPool.New = func() any { return &waiter{ready: make(chan error, 1)} }
	m.statePool.New = func() any { return &txnState{} }
	return m
}

// shardFor maps a resource to its shard, returning the hash too: the
// shard's open-addressing entry index reuses it, so the resource is
// hashed exactly once per operation.
func (m *Manager) shardFor(res ResourceID) (*shard, uint64) {
	h := res.hash()
	return &m.shards[h&m.shardMask], h
}

// txnState is the txn-owned lock bookkeeping: which shards the
// transaction holds locks in (an atomic bitmask, set on first grant per
// shard) and, per shard, which resources. The per-shard slices are only
// touched under that shard's mutex, so a promote granting on one shard
// can run concurrently with the transaction acquiring on another.
type txnState struct {
	shards atomic.Uint64
	held   [maxShardCount][]ResourceID
}

// txnStripe is one stripe of the txn → state registry. Transactions get
// sequential IDs, so adjacent transactions land on different stripes.
type txnStripe struct {
	mu sync.Mutex
	m  map[TxnID]*txnState
}

// stateFor returns the transaction's state, creating it on first use.
func (m *Manager) stateFor(txn TxnID) *txnState {
	st := &m.stripes[uint64(txn)%txnStripeCount]
	st.mu.Lock()
	s := st.m[txn]
	if s == nil {
		s = m.statePool.Get().(*txnState)
		st.m[txn] = s
	}
	st.mu.Unlock()
	return s
}

// lookupState returns the transaction's state or nil.
func (m *Manager) lookupState(txn TxnID) *txnState {
	st := &m.stripes[uint64(txn)%txnStripeCount]
	st.mu.Lock()
	s := st.m[txn]
	st.mu.Unlock()
	return s
}

// takeState removes and returns the transaction's state (nil if none).
func (m *Manager) takeState(txn TxnID) *txnState {
	st := &m.stripes[uint64(txn)%txnStripeCount]
	st.mu.Lock()
	s := st.m[txn]
	if s != nil {
		delete(st.m, txn)
	}
	st.mu.Unlock()
	return s
}

// dropStateIfEmpty recycles the state of a transaction that holds no
// locks (a deadlock victim aborted on its very first request).
func (m *Manager) dropStateIfEmpty(txn TxnID, s *txnState) {
	if s.shards.Load() != 0 {
		return
	}
	st := &m.stripes[uint64(txn)%txnStripeCount]
	st.mu.Lock()
	if st.m[txn] == s {
		delete(st.m, txn)
	}
	st.mu.Unlock()
	m.statePool.Put(s)
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

// SetWaitHist attaches a histogram that receives the wall time of every
// blocking acquire. Safe to call concurrently with acquires; nil detaches.
func (m *Manager) SetWaitHist(h *obs.Hist) { m.waitHist.Store(h) }

// AcquireWait is Acquire, additionally reporting how long the request
// waited in the queue (0 for reentrant and immediately granted
// requests). Callers instrumenting lock convoys (the engine's flight
// recorder) use the duration; everyone else goes through Acquire.
func (m *Manager) AcquireWait(txn TxnID, res ResourceID, mode Mode) (time.Duration, error) {
	return m.AcquireWaitDone(txn, res, mode, nil)
}

// AcquireWaitDone is AcquireWait bounded by a cancellation channel: if
// done fires while the request is queued, the waiter is withdrawn and
// ErrCanceled returned. The fast path (reentrant or immediate grant)
// never consults done — cancellation is only observed at points where
// the request would sleep, matching context semantics on the facade. A
// nil done is exactly AcquireWait.
func (m *Manager) AcquireWaitDone(txn TxnID, res ResourceID, mode Mode, done <-chan struct{}) (time.Duration, error) {
	m.stats.requests.Add(1)
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	e := sh.table.get(res, h)
	if e == nil {
		e = sh.newEntry()
		sh.table.put(res, h, e)
	}
	gs := e.granted[txn]
	if gs.redundant(mode) {
		m.stats.reentrant.Add(1)
		sh.mu.Unlock()
		return 0, nil
	}
	upgrade := gs.first != nil
	if upgrade {
		m.stats.upgrades.Add(1)
	}

	state := m.stateFor(txn)
	if e.compatibleWithOthers(txn, mode) && (len(e.queue) == 0 || upgrade) {
		sh.grant(e, txn, state, res, mode)
		m.stats.immediateGrants.Add(1)
		sh.mu.Unlock()
		return 0, nil
	}

	// Must wait. Conversions go to the front of the queue, after any
	// conversions already waiting; plain requests are FIFO.
	w := m.waiterPool.Get().(*waiter)
	w.txn, w.state, w.res, w.mode, w.upgrade = txn, state, res, mode, upgrade
	e.enqueue(w)
	m.stats.blocks.Add(1)
	m.reg.add(txn, w) // publish the waits-for edge before detecting
	sh.mu.Unlock()

	start := time.Now()
	err := m.block(txn, w, sh, res, h, done)
	waited := time.Since(start)
	if hist := m.waitHist.Load(); hist != nil {
		hist.Record(waited)
	}
	return waited, err
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

// block runs the slow half of an acquire — deadlock detection, then the
// grant/timeout/cancellation wait — after the waiter has been enqueued.
func (m *Manager) block(txn TxnID, w *waiter, sh *shard, res ResourceID, h uint64, done <-chan struct{}) error {
	if err := m.detectDeadlock(txn, w, sh); err != nil {
		return err
	}
	for i := 0; i < grantSpins; i++ {
		select {
		case err := <-w.ready:
			m.recycleWaiter(w)
			return err
		default:
			runtime.Gosched()
		}
	}

	if m.WaitTimeout <= 0 && done == nil {
		return m.await(w)
	}
	// A select on a nil channel blocks forever, so an unset timeout or
	// an absent done channel simply drops out of the race.
	var timeout <-chan time.Time
	if m.WaitTimeout > 0 {
		timer := time.NewTimer(m.WaitTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case err := <-w.ready:
		m.recycleWaiter(w)
		return err
	case <-timeout:
		return m.withdraw(txn, w, sh, res, h, ErrTimeout)
	case <-done:
		return m.withdraw(txn, w, sh, res, h, ErrCanceled)
	}
}

// withdraw removes a waiter whose timeout or cancellation fired. If the
// grant raced ahead of the withdrawal, the grant wins and cause is
// dropped — the lock is held, the caller proceeds.
func (m *Manager) withdraw(txn TxnID, w *waiter, sh *shard, res ResourceID, h uint64, cause error) error {
	sh.mu.Lock()
	if e := sh.table.get(res, h); e != nil && e.removeWaiter(w) {
		m.reg.remove(txn)
		if cause == ErrTimeout {
			m.stats.timeouts.Add(1)
		}
		sh.promote(m, e)
		sh.mu.Unlock()
		m.dropStateIfEmpty(txn, w.state)
		m.recycleWaiter(w)
		return cause
	}
	// Granted between the wakeup and the lock: consume the grant.
	sh.mu.Unlock()
	return m.await(w)
}

// await consumes the grant signal and recycles the waiter.
func (m *Manager) await(w *waiter) error {
	err := <-w.ready
	m.recycleWaiter(w)
	return err
}

func (m *Manager) recycleWaiter(w *waiter) {
	w.state = nil
	w.mode = nil
	w.res = ResourceID{}
	m.waiterPool.Put(w)
}

// Holds reports whether txn currently holds mode on res.
func (m *Manager) Holds(txn TxnID, res ResourceID, mode Mode) bool {
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table.get(res, h)
	if e == nil {
		return false
	}
	gs := e.granted[txn]
	if gs.first == mode {
		return true
	}
	for _, h := range gs.rest {
		if h == mode {
			return true
		}
	}
	return false
}

// HeldModes returns the modes txn holds on res (nil if none).
func (m *Manager) HeldModes(txn TxnID, res ResourceID) []Mode {
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table.get(res, h)
	if e == nil {
		return nil
	}
	gs := e.granted[txn]
	if gs.first == nil {
		return nil
	}
	out := make([]Mode, 0, 1+len(gs.rest))
	out = append(out, gs.first)
	return append(out, gs.rest...)
}

// LocksHeld returns the number of (resource, mode) locks txn holds.
func (m *Manager) LocksHeld(txn TxnID) int {
	s := m.lookupState(txn)
	if s == nil {
		return 0
	}
	n := 0
	mask := s.shards.Load()
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		mask &^= 1 << i
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, res := range s.held[i] {
			if e := sh.table.get(res, res.hash()); e != nil {
				if gs := e.granted[txn]; gs.first != nil {
					n += 1 + len(gs.rest)
				}
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
// A release that admitted a waiter hands the processor to it. The woken
// goroutine is next on the releaser's own run queue and already holds
// the lock; if the releaser ran on — into its next transaction, often
// for the same hot resource — the new holder would sit there until an
// idle processor woke up and stole it, a delay set by the operating
// system, during which everyone else queues behind a lock whose holder
// is not running. Yielding runs the holder at once and leaves the
// releaser, which holds nothing, for the other processor.
func (m *Manager) ReleaseAll(txn TxnID) {
	m.stats.releases.Add(1)
	s := m.takeState(txn)
	if s == nil {
		return
	}
	woke := false
	mask := s.shards.Load()
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
			delete(e.granted, txn)
			if sh.promote(m, e) {
				woke = true
			}
			if len(e.granted) == 0 && len(e.queue) == 0 {
				sh.table.del(res, h)
				sh.freeEntry(e)
			}
		}
		s.held[i] = s.held[i][:0]
		sh.mu.Unlock()
	}
	s.shards.Store(0)
	m.statePool.Put(s)
	if woke {
		runtime.Gosched()
	}
}

// Snapshot returns a copy of the counters. It reads atomics only and
// never blocks behind the lock table.
func (m *Manager) Snapshot() Stats {
	return Stats{
		Requests:            m.stats.requests.Load(),
		Reentrant:           m.stats.reentrant.Load(),
		ImmediateGrants:     m.stats.immediateGrants.Load(),
		Blocks:              m.stats.blocks.Load(),
		Upgrades:            m.stats.upgrades.Load(),
		Deadlocks:           m.stats.deadlocks.Load(),
		EscalationDeadlocks: m.stats.escalationDeadlocks.Load(),
		Timeouts:            m.stats.timeouts.Load(),
		Releases:            m.stats.releases.Load(),
	}
}

// ResetStats zeroes the counters (between experiment phases).
func (m *Manager) ResetStats() {
	m.stats.requests.Store(0)
	m.stats.reentrant.Store(0)
	m.stats.immediateGrants.Store(0)
	m.stats.blocks.Store(0)
	m.stats.upgrades.Store(0)
	m.stats.deadlocks.Store(0)
	m.stats.escalationDeadlocks.Store(0)
	m.stats.timeouts.Store(0)
	m.stats.releases.Store(0)
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
