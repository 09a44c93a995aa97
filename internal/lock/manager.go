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
// a lock to count and Snapshot never takes a table lock to read. The
// same cells are the registry's series (RegisterMetrics).
type statsCounters struct {
	requests            obs.Counter
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
// partition number, so the rows hash onto different shards. An intention
// mode (IsIntention) locks only the requester's own partition, chosen by
// TxnID; every other mode sweeps all of them (see sweep). That is sound
// because the intention modes that can meet on one resource are pairwise
// compatible (section 5.2: "two intentional locks always coexist"), so
// every conflict involves a non-intention mode, and that mode visits
// every partition.
//
// Nothing above the lock manager sees a partition: an Acquire counts
// once in Stats, Holds/HeldModes/LocksHeld report the logical lock, and
// a sweep is granted on every partition at once or on none, so it keeps
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
// workload does not pin every transaction to one shard. Per-transaction
// held-lock tracking lives in txn-owned states (found via a striped
// registry), so ReleaseAll touches only the shards the transaction
// actually holds locks in. Deadlock detection runs off the hot path
// against a dedicated waits-for registry updated only on block/unblock.
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
	txn    TxnID
	shards atomic.Uint64
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
	if i := st.find(txn); i >= 0 && st.live[i].shards.Load() == 0 {
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
// done fires while the request is queued, the waiter is withdrawn and
// ErrCanceled returned. The fast path (reentrant or immediate grant)
// never consults done — cancellation is only observed at points where
// the request would sleep, matching context semantics on the facade. A
// nil done is exactly AcquireWait.
func (m *Manager) AcquireWaitDone(txn TxnID, res ResourceID, mode Mode, done <-chan struct{}) (time.Duration, error) {
	m.stats.requests.Add(1)
	if partitioned(res) && !IsIntention(mode) {
		return m.sweep(txn, res, mode, done)
	}
	held, upgrade, w := m.request(txn, ownRow(txn, res), mode)
	if held {
		m.stats.reentrant.Add(1)
		return 0, nil
	}
	if upgrade {
		m.stats.upgrades.Add(1)
	}
	if w == nil {
		m.stats.immediateGrants.Add(1)
		return 0, nil
	}
	m.stats.blocks.Add(1)
	start := time.Now()
	return m.waited(txn, start, m.block(txn, w, done))
}

// request asks for mode on one lock-table row and returns without
// sleeping: held means txn already has it (or a covering mode), a nil w
// means it was granted, and otherwise w is queued and published to the
// waits-for registry, for block to wait on. upgrade reports a
// conversion: txn holds the row already.
func (m *Manager) request(txn TxnID, res ResourceID, mode Mode) (held, upgrade bool, w *waiter) {
	sh, h := m.shardFor(res)
	sh.mu.Lock()
	e := sh.table.get(res, h)
	if e == nil {
		e = sh.newEntry()
		sh.table.put(res, h, e)
	}
	i := e.find(txn)
	if i >= 0 && e.holders[i].modes.redundant(mode) {
		sh.mu.Unlock()
		return true, false, nil
	}
	upgrade = i >= 0
	state := m.stateFor(txn)
	if e.compatibleWithOthers(txn, mode) && (len(e.queue) == 0 || upgrade) {
		sh.grant(e, i, txn, state, res, mode)
		sh.mu.Unlock()
		return false, upgrade, nil
	}

	// Must wait. Conversions go to the front of the queue, after any
	// conversions already waiting; plain requests are FIFO.
	w = m.waiterPool.Get().(*waiter)
	w.txn, w.state, w.res, w.mode, w.upgrade = txn, state, res, mode, upgrade
	e.enqueue(w)
	m.reg.add(txn, w) // publish the waits-for edge before detecting
	sh.mu.Unlock()
	return false, upgrade, w
}

// sweep acquires a non-intention mode on a partitioned resource, on
// every partition at once. It holds the shard mutexes of all the
// partitions together (partsOf) and is either granted on all of them —
// each compatible, and each queue empty or the request a conversion —
// or queued on all of them, to be granted on all of them together later
// (blockSweep). So it holds nothing while it waits: it keeps the logical
// lock's place in FIFO order on every partition, a conversion passes it
// as on a single row, and a failed sweep has nothing to give back. If
// txn already holds the class the request is a conversion on every
// partition.
func (m *Manager) sweep(txn TxnID, res ResourceID, mode Mode, done <-chan struct{}) (time.Duration, error) {
	p := m.partsOf(res)
	p.lock()
	var e [classPartitions]*entry
	for i := range e {
		if e[i] = p.sh[i].table.get(p.res[i], p.h[i]); e[i] == nil {
			e[i] = p.sh[i].newEntry()
			p.sh[i].table.put(p.res[i], p.h[i], e[i])
		}
	}
	// Partitions differ only by intention modes, and those never cover a
	// non-intention one: held on one partition is held on all of them.
	if i := e[0].find(txn); i >= 0 && e[0].holders[i].modes.redundant(mode) {
		p.unlock()
		m.stats.reentrant.Add(1)
		return 0, nil
	}
	conv := e[uint64(txn)%classPartitions].find(txn) >= 0
	if conv {
		m.stats.upgrades.Add(1)
	}
	state := m.stateFor(txn)
	if compatibleAll(e[:], txn, mode) && (conv || queuesEmpty(e[:])) {
		for i := range e {
			p.sh[i].grant(e[i], e[i].find(txn), txn, state, p.res[i], mode)
		}
		p.unlock()
		m.stats.immediateGrants.Add(1)
		return 0, nil
	}

	// Queue on every partition. Each waiter is a part: promote does not
	// grant it but tells the sweep, through the first part's ready
	// channel, that it has reached the head of its queue.
	var ws [classPartitions]*waiter
	for i := range ws {
		w := m.waiterPool.Get().(*waiter)
		ws[i] = w
		w.txn, w.state, w.res, w.mode, w.upgrade, w.lead = txn, state, p.res[i], mode, conv, ws[0]
		e[i].enqueue(w)
	}
	published := ws // detection reads this copy, never the live array
	m.reg.put(txn, waitInfo{res: res, mode: mode, upgrade: conv, parts: &published})
	p.unlock()
	m.stats.blocks.Add(1)
	start := time.Now()
	return m.waited(txn, start, m.blockSweep(txn, &p, &ws, done))
}

// parts is the rows of a partitioned resource with their hashes and
// shards, and those shards once each in ascending order: the order in
// which a sweep locks them. No other path holds two shard mutexes, so
// sweeps cannot deadlock on them.
type parts struct {
	res   [classPartitions]ResourceID
	h     [classPartitions]uint64
	sh    [classPartitions]*shard
	order [classPartitions]*shard
	n     int
}

func (m *Manager) partsOf(res ResourceID) (p parts) {
	for i := range p.res {
		p.res[i] = partition(res, i)
		p.sh[i], p.h[i] = m.shardFor(p.res[i])
		j := 0
		for j < p.n && p.order[j].idx < p.sh[i].idx {
			j++
		}
		if j < p.n && p.order[j] == p.sh[i] {
			continue
		}
		copy(p.order[j+1:p.n+1], p.order[j:p.n])
		p.order[j] = p.sh[i]
		p.n++
	}
	return p
}

func (p *parts) lock() {
	for _, sh := range p.order[:p.n] {
		sh.mu.Lock()
	}
}

func (p *parts) unlock() {
	for _, sh := range p.order[:p.n] {
		sh.mu.Unlock()
	}
}

// entries returns the partitions' rows. Requires p locked and the rows
// present — as they are while the sweep is queued on them.
func (p *parts) entries() (e [classPartitions]*entry) {
	for i := range e {
		e[i] = p.sh[i].table.get(p.res[i], p.h[i])
	}
	return e
}

// compatibleAll reports whether mode is compatible with every other
// transaction's modes on every one of the rows e.
func compatibleAll(e []*entry, txn TxnID, mode Mode) bool {
	for i := range e {
		if !e[i].compatibleWithOthers(txn, mode) {
			return false
		}
	}
	return true
}

func queuesEmpty(e []*entry) bool {
	for i := range e {
		if len(e[i].queue) > 0 {
			return false
		}
	}
	return true
}

// grantable reports whether the sweep queued as ws heads every queue of
// the rows e and is compatible with every holder: what promote would
// grant, were the rows one.
func grantable(e []*entry, ws *[classPartitions]*waiter) bool {
	for i := range e {
		if e[i].queue[0] != ws[i] {
			return false
		}
	}
	return compatibleAll(e, ws[0].txn, ws[0].mode)
}

// blockSweep waits until the sweep queued as ws heads every queue and is
// compatible everywhere, then grants it on every partition at once and
// admits whatever queued behind it. Promote rings the first part's
// ready channel whenever one of the parts comes to head its queue; each
// ring is a look under all the partitions' mutexes. A timeout or
// cancellation withdraws the sweep from every queue — unless it is
// grantable by then, and then the grant wins.
func (m *Manager) blockSweep(txn TxnID, p *parts, ws *[classPartitions]*waiter, done <-chan struct{}) error {
	if err := m.detectSweepDeadlock(txn, p, ws); err != nil {
		return err
	}
	timeout := m.deadline()
	for {
		var cause error
		select {
		case <-ws[0].ready:
		case <-timeout:
			cause = ErrTimeout
		case <-done:
			cause = ErrCanceled
		}
		p.lock()
		e := p.entries()
		if w := ws[0]; grantable(e[:], ws) {
			for i := range e {
				e[i].queue = e[i].queue[1:]
				p.sh[i].grant(e[i], e[i].find(txn), txn, w.state, p.res[i], w.mode)
				p.sh[i].promote(m, e[i])
			}
			cause = nil
		} else if cause == nil {
			p.unlock()
			continue
		} else {
			m.unqueue(p, e[:], ws)
			if cause == ErrTimeout {
				m.stats.timeouts.Add(1)
			}
		}
		m.reg.remove(txn)
		p.unlock()
		m.recycleParts(ws)
		return cause
	}
}

// unqueue takes the sweep queued as ws off every partition's queue and
// admits whatever its place held back. Requires p locked.
func (m *Manager) unqueue(p *parts, e []*entry, ws *[classPartitions]*waiter) {
	for i := range e {
		e[i].removeWaiter(ws[i])
		p.sh[i].settle(m, e[i], p.res[i], p.h[i])
	}
}

// recycleParts recycles a finished sweep's waiters. None of them is in a
// queue any more, so no ring can follow: clearing the one that may be
// pending leaves the first part's channel empty for its next user.
func (m *Manager) recycleParts(ws *[classPartitions]*waiter) {
	select {
	case <-ws[0].ready:
	default:
	}
	for _, w := range ws {
		m.recycleWaiter(w)
	}
}

// waited closes a blocking acquire that started queueing at start: the
// wait goes to the histogram, and a failed request recycles the state of
// a transaction it left holding nothing.
func (m *Manager) waited(txn TxnID, start time.Time, err error) (time.Duration, error) {
	d := time.Since(start)
	if hist := m.waitHist.Load(); hist != nil {
		hist.Record(d)
	}
	if err != nil {
		m.dropStateIfEmpty(txn)
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

// block runs the slow half of an acquire — deadlock detection, then the
// grant/timeout/cancellation wait — after the waiter has been enqueued.
// On failure the waiter is off the queue and recycled.
func (m *Manager) block(txn TxnID, w *waiter, done <-chan struct{}) error {
	res := w.res
	sh, h := m.shardFor(res)
	if err := m.detectDeadlock(txn, w, sh); err != nil {
		return err
	}
	if cause := m.wait(w, m.deadline(), done); cause != nil {
		return m.withdraw(txn, w, sh, res, h, cause)
	}
	m.recycleWaiter(w)
	return nil
}

// deadline returns a channel that fires once WaitTimeout has passed, or
// nil — which never fires — when no timeout is set.
func (m *Manager) deadline() <-chan time.Time {
	if m.WaitTimeout <= 0 {
		return nil
	}
	return time.After(m.WaitTimeout)
}

// wait waits for the grant of w, polling grantSpins times before it
// sleeps, until timeout or done fires (a nil channel never does). It
// returns nil once it has consumed the grant, and otherwise the cause —
// ErrTimeout or ErrCanceled — with w still to be withdrawn.
func (m *Manager) wait(w *waiter, timeout <-chan time.Time, done <-chan struct{}) error {
	for i := 0; i < grantSpins; i++ {
		select {
		case <-w.ready:
			return nil
		default:
			runtime.Gosched()
		}
	}
	select {
	case <-w.ready:
		return nil
	case <-timeout:
		return ErrTimeout
	case <-done:
		return ErrCanceled
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
		sh.settle(m, e, res, h)
		sh.mu.Unlock()
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
	w.lead = nil
	w.mode = nil
	w.res = ResourceID{}
	m.waiterPool.Put(w)
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
	mask := s.shards.Load()
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
			if j := e.find(txn); j >= 0 {
				e.drop(j)
			}
			if sh.settle(m, e, res, h) {
				woke = true
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

// RegisterMetrics exports every Stats counter as a series of reg and
// attaches the wait-time histogram the counters alone cannot express
// (Blocks says how often, not how long). Call once per registry.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	m.waitHist.Store(reg.Histogram("favcc_lock_wait_seconds",
		"Lock-manager queue wait per blocking acquire.", "", true))
	reg.RegisterCounter("favcc_lock_requests_total", "Lock acquire calls.", "", &m.stats.requests)
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
