// Package txn provides strict two-phase-locking transactions over the
// lock manager and the object store: begin/commit/abort, undo-based
// recovery, a redo-log hook for durability, and a deadlock-retry loop.
//
// Recovery follows the paper's remark in section 3: "Recovery uses
// access vectors as projection patterns for extracting the modified
// parts of instances." The engine captures a before-image of exactly the
// fields in the Write set of the executed method's transitive access
// vector (once per transaction and instance slot); Abort plays the
// images back in reverse order. The captured image is also the version
// snapshot readers roll back to (storage/version.go): the undo log
// points at records linked on the instances' chains, and Commit stamps
// them with its epoch instead of copying anything. When a redo log is
// attached, Commit reads the same projected (instance, slot) pairs back
// as after-images and appends one commit record — the lock plan, the
// undo log and the redo record all derive from the same compile-time
// analysis. Slots written under declared (escrow) commutativity are the
// one exception: they are logged as integer deltas, not after-images,
// because a concurrent escrow writer's uncommitted contribution may be
// sitting in the live cell and must not become durable through someone
// else's record. Abort never touches the log: undo is entirely
// in-memory, so only committed transactions pay any I/O.
//
// The compiler decides where latches go. An instance's execution latch
// is taken by the engine's frames that write escrow slots, and here only
// by the rollback of a delta, one instance at a time. Commit takes no
// latch: every slot another uncommitted writer may share is logged as
// a delta, and every other slot is excluded by 2PL.
package txn

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wal"
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	}
	return "state(?)"
}

// ErrNotActive is returned when operating on a finished transaction.
var ErrNotActive = errors.New("txn: transaction is not active")

// ErrReadOnly is returned by write attempts after the durable log has
// latched fail-stop: the store still serves reads at the durable epoch
// (the acknowledged prefix recovery would reproduce), but nothing
// further can be made durable, so mutations are refused up front rather
// than failing at commit with work already done. It always wraps the
// log's original failure — errors.Is(err, wal.ErrDiskFull) still tells
// an operator the disk is full.
var ErrReadOnly = errors.New("txn: database is read-only: durable log failed")

// ErrSnapshotWrite is returned when a snapshot transaction attempts a
// mutation. It should be unreachable through the engine: snapshot
// transactions are only begun for method sets the transitive access
// vectors prove read-only at schema build, so this is the runtime
// backstop for that static classification.
var ErrSnapshotWrite = errors.New("txn: snapshot transaction is read-only")

// undoEntry is one rollback step. Entries run in reverse chronological
// order on Abort; on Commit the same entries, read forward, are the
// TAV-projected redo record. rec is the version record linked on the
// instance's chain — the one copy of the before-image (or escrow delta),
// read by rollback, by the redo projection and by snapshot readers — or
// a creation or deletion marker; its slot says which
// (storage.SlotCreate, storage.SlotDelete).
type undoEntry struct {
	inst *storage.Instance
	rec  *storage.Version
}

type undoKey struct {
	oid  storage.OID
	slot int
}

// Txn is one transaction. It is not safe for concurrent use by multiple
// goroutines (like database sessions, one goroutine drives one txn), and
// must not be touched after Commit/Abort when it was begun through
// RunWithRetry — the manager recycles it.
type Txn struct {
	ID    lock.TxnID
	mgr   *Manager
	state State

	mu      sync.Mutex
	undo    []undoEntry
	undoSet map[undoKey]int // index into undo of the slot's entry
	creates int             // LogCreate calls: Write looks for its own creation only when non-zero

	// Snapshot-transaction state: a snapshot txn registers in the
	// store's reader watermark at begin, reads every instance as of
	// snapEpoch, and never touches the lock table, the undo log, or the
	// redo log.
	snapshot  bool
	snapEpoch uint64
	snapNode  storage.SnapshotReader

	// Flight-recorder state (see internal/obs): the trace is embedded —
	// a fixed event array inside the pooled Txn — so an armed recorder
	// still costs zero allocations per transaction. traceOn latches the
	// recorder's Enabled() answer at Begin; abortReason carries the
	// obs.Abort* code the retry loop classified for the EvAbort event.
	trace       obs.TxnTrace
	traceOn     bool
	abortReason uint64

	// done, when non-nil, is the caller's cancellation channel
	// (context.Done): the engine threads it into every blocking lock
	// acquire, and commit bounds a blocking durability wait by it. Nil —
	// the default, and what context.Background() yields — is free: a nil
	// channel never wins a select, so the uncancellable path costs
	// nothing and allocates nothing. Bound by the retry loop only.
	done <-chan struct{}
}

// Done returns the transaction's cancellation channel (nil when the
// caller did not bind one).
func (t *Txn) Done() <-chan struct{} { return t.done }

// State returns the lifecycle state.
func (t *Txn) State() State { return t.state }

// IsSnapshot reports whether this is a snapshot (multiversion read)
// transaction.
func (t *Txn) IsSnapshot() bool { return t.snapshot }

// SnapshotEpoch returns the begin epoch of a snapshot transaction
// (0 for ordinary locking transactions — real epochs start at 1).
func (t *Txn) SnapshotEpoch() uint64 { return t.snapEpoch }

// Trace returns the transaction's flight-recorder trace, or nil when
// tracing is disabled (no recorder attached, or the threshold was zero
// at Begin). The engine records lock-wait events into it.
func (t *Txn) Trace() *obs.TxnTrace {
	if !t.traceOn {
		return nil
	}
	return &t.trace
}

// finishTrace offers a completed transaction's trace to the flight
// recorder (which keeps it only when the transaction ran slow). Called
// from every commit/abort completion path; idempotent per transaction.
func (t *Txn) finishTrace() {
	if !t.traceOn {
		return
	}
	t.traceOn = false
	t.mgr.flight.Note(uint64(t.ID), &t.trace)
}

// Locks returns the lock manager (for protocol implementations).
func (t *Txn) Locks() *lock.Manager { return t.mgr.locks }

// Writable reports whether this transaction may still mutate state:
// ErrReadOnly (wrapping the log's fail-stop cause) once the log has
// latched — checked first, since the degraded retry loop runs only
// snapshots — ErrSnapshotWrite for a snapshot, nil otherwise. The engine
// calls it before every store/create/delete, so writes fail at the
// first mutation instead of at commit.
func (t *Txn) Writable() error {
	if w := t.mgr.wal; w != nil && w.Failed() != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, w.Failed())
	}
	if t.snapshot {
		return ErrSnapshotWrite
	}
	return nil
}

// Write stores v into one slot on the transaction's behalf. The first
// write of an (instance, slot) pair links the transaction's one record
// for it in the same store window — later images would overwrite earlier
// writes of the same transaction and must not be kept — and every write
// hands that record back to the store, which keeps it current (see
// storage.Store.Write). A write to an instance this transaction created
// links nothing and leaves no undo entry: nobody else reaches the
// instance before the creation commits, abort removes it whole, and the
// create record carries its final image.
//
// escrow marks a slot written under declared commutativity: an integer
// write is then recorded as the transaction's net delta, not a
// before-image, and rollback subtracts it. Another writer of the slot is
// not excluded by 2PL, so by abort time a pre-image may be stale and
// restoring it would erase the concurrent writer's update; the net delta
// is exactly final − pre-transaction however the writes interleaved.
// The caller holds the instance's execution latch across its read of
// the slot and this call.
func (t *Txn) Write(in *storage.Instance, slot int, v storage.Value, escrow bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := undoKey{oid: in.OID, slot: slot}
	if i, ok := t.undoSet[k]; ok {
		t.mgr.store.Write(in, slot, v, t.undo[i].rec, escrow)
		return
	}
	if t.creates > 0 && in.CreatedBy(uint64(t.ID)) {
		in.Set(slot, v)
		return
	}
	t.undoSet[k] = len(t.undo)
	rec := t.mgr.store.Write(in, slot, v, nil, escrow)
	t.undo = append(t.undo, undoEntry{inst: in, rec: rec})
}

// LogCreate records that this transaction created in, which entered the
// store carrying marker (storage.Store.NewUncommitted): Abort removes it
// from the store again, Commit stamps the marker and emits a create
// record carrying the full image, final values included.
func (t *Txn) LogCreate(in *storage.Instance, marker *storage.Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.undo = append(t.undo, undoEntry{inst: in, rec: marker})
	t.creates++
}

// LogDelete records that this transaction deleted in by linking marker
// (storage.Store.MarkDeleted): Abort unlinks the marker, Commit stamps
// it, removes the instance from the store and emits a delete record.
func (t *Txn) LogDelete(in *storage.Instance, marker *storage.Version) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.undo = append(t.undo, undoEntry{inst: in, rec: marker})
}

// UndoDepth returns the number of captured undo entries.
func (t *Txn) UndoDepth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.undo)
}

// submitRecord projects the undo log forward into one redo record — an
// op per entry — and sequences it on the log's queue, returning the
// record's durability ticket; publish runs as the record is sequenced. The
// transaction still holds every lock, so the after-images it reads are
// its own final values: a slot another uncommitted writer may share is
// one under declared commutativity, and that slot is logged as a delta.
func (t *Txn) submitRecord(w *wal.Log) (*wal.Future, error) {
	c := w.BeginCommit(uint64(t.ID))
	for i := range t.undo {
		e := &t.undo[i]
		switch slot := e.rec.Slot(); slot {
		case storage.SlotCreate:
			c.Create(e.inst.Class.ID, uint64(e.inst.OID), e.inst)
		case storage.SlotDelete:
			c.Delete(uint64(e.inst.OID))
		default:
			if delta, ok := e.rec.Delta(); ok {
				// Commuting slot: log the transaction's net delta, not
				// an after-image. The live value may include a
				// concurrent escrow writer's uncommitted contribution,
				// and aborts write no compensation record — an
				// after-image here would resurrect an aborted delta on
				// replay. Delta replay applies exactly the committed
				// contributions, in any order.
				c.WriteDelta(uint64(e.inst.OID), slot, delta)
			} else {
				c.Write(uint64(e.inst.OID), slot, e.inst.Get(slot))
			}
		}
	}
	return c.Submit(t.publish)
}

// commit is the one commit sequence: sequence the redo record, and draw
// the epoch and publish under the log's sequencing mutex (with a log and
// a non-empty undo log; a failure there draws nothing and rolls back) →
// release locks → a blocking commit waits for the log, bounded by done,
// a pipelined one hands its Future out. Queue order is log and epoch
// order, so conflicting transactions reach the log in conflict order,
// and a sequenced commit never rolls back: if the log fails under it,
// the error comes back with the write in memory, kept from every reader
// by the store's durable epoch.
func (t *Txn) commit(pipelined bool) (Future, error) {
	if t.state != Active {
		return Future{}, ErrNotActive
	}
	if t.snapshot {
		t.endSnapshot(true)
		return Future{}, nil
	}
	var fut Future
	if w := t.mgr.wal; w != nil && len(t.undo) > 0 {
		var err error
		if fut.w, err = t.submitRecord(w); err != nil {
			t.Abort()
			return Future{}, fmt.Errorf("txn: commit log append: %w", err)
		}
	} else {
		t.publish(0)
	}
	t.state = Committed
	t.clearUndo()
	t.mgr.locks.ReleaseAll(t.ID)
	t.mgr.noteDone(true)
	if pipelined && fut.w != nil {
		t.finishTrace()
		// The log's writer just got the record. Where sessions keep every
		// processor busy it runs only when one yields, so yield here,
		// holding nothing — or batches close a time slice late.
		runtime.Gosched()
		return fut, nil
	}
	err := t.awaitTicket(fut)
	t.finishTrace()
	return Future{}, err
}

// awaitTicket waits for a sequenced record's durability ticket, bounded
// by the transaction's cancellation channel (nil: unbounded), and
// records the wait in the trace. A durable commit that wrote nothing
// may have read a write the log has not acknowledged, so while any
// epoch drawn is unacknowledged it passes a Sync barrier instead, bounded
// the same way.
func (t *Txn) awaitTicket(f Future) error {
	w := t.mgr.wal
	if f.w == nil && (w == nil || t.mgr.store.DurableEpoch() >= t.mgr.store.LastEpoch()) {
		return nil
	}
	var start time.Time
	if t.traceOn {
		start = time.Now()
	}
	err := f.WaitDone(t.done)
	if f.w == nil {
		err = w.Sync(t.done) // no ticket: f resolved at once
	}
	if t.traceOn {
		t.trace.Add(obs.EvFsyncWait, time.Since(start), 0)
	}
	return err
}

// Commit publishes the transaction's effects, releases its locks and,
// when a redo log is attached, blocks until the log acknowledges the
// commit (see commit for what a failure leaves behind).
func (t *Txn) Commit() error {
	_, err := t.commit(false)
	return err
}

// Future is the durability ticket of a pipelined commit. The zero value
// (and the ticket of a read-only or volatile commit) is already
// resolved. Wait may be called from any goroutine but at most once: the
// underlying log future is pooled and recycled by its first Wait.
type Future struct {
	w *wal.Future
}

// Wait blocks until the commit is acknowledged per the log's sync
// policy (under SyncAlways: hardened on disk) and returns the outcome.
// A non-nil error means the log went fail-stop under the transaction:
// its effects are in memory, but no reader sees them. Call at most once.
func (f Future) Wait() error { return f.WaitDone(nil) }

// WaitDone is Wait bounded by a cancellation channel (nil: unbounded);
// like Wait, call at most once. On cancellation it returns
// wal.ErrWaitCanceled — the commit is sequenced and its effects
// visible, only the durability confirmation was abandoned (a background
// drainer recycles the ticket).
func (f Future) WaitDone(done <-chan struct{}) error {
	if f.w == nil {
		return nil
	}
	return f.w.WaitDone(done)
}

// CommitPipelined commits without waiting for the fsync: the commit
// record is sequenced on the log's queue, locks release immediately —
// any transaction that conflicted with this one can only append later
// in the log, so the durable log prefix is always conflict-consistent —
// and the returned Future resolves when the record is hardened. The
// session can run its next transaction while the batch's fsync is in
// flight; snapshots read the commit once the Future resolves. A
// synchronous error (record too large, log fail-stop or closed) rolls
// the transaction back exactly like Commit.
func (t *Txn) CommitPipelined() (Future, error) { return t.commit(true) }

// publish stamps the transaction's version records with its commit
// epoch (0: drawn here), removes the instances it deleted from the
// store, and retires the epoch in order; a transaction that linked no
// record has none. Snapshots at or above the epoch read its writes, and
// its lock waiters resume to its stamped deletion markers.
func (t *Txn) publish(epoch uint64) {
	t.mu.Lock()
	if len(t.undo) == 0 {
		t.mu.Unlock()
		return
	}
	if epoch == 0 {
		epoch = t.mgr.store.AllocEpoch()
	}
	for _, e := range t.undo {
		e.rec.Stamp(epoch)
		if e.rec.Slot() == storage.SlotDelete {
			t.mgr.store.Delete(e.inst.OID) //nolint:errcheck // the marker keeps it live until here
		}
	}
	t.mu.Unlock()
	t.mgr.store.FinishEpoch(epoch)
	if t.traceOn {
		t.trace.Add(obs.EvCommit, 0, epoch)
	}
}

// rollback plays the undo log backwards and clears it. Each slot write
// is restored and its record unlinked in one store window, so no
// snapshot ever reads the undone value; a deletion marker is unlinked
// the same way, and a created instance leaves the store. Subtracting a
// delta is a read-modify-write of a cell that commuting writers' frames
// also read-modify-write under the instance's execution latch, so it
// takes that latch, one instance at a time; nothing else does.
func (t *Txn) rollback() {
	t.mu.Lock()
	for i := len(t.undo) - 1; i >= 0; i-- {
		e := &t.undo[i]
		switch _, delta := e.rec.Delta(); {
		case e.rec.Slot() == storage.SlotCreate:
			// The marker stays pending on the dead instance.
			t.mgr.store.Delete(e.inst.OID) //nolint:errcheck // already gone is fine
		case delta:
			e.inst.LockExec()
			e.inst.Rollback(e.rec)
			e.inst.UnlockExec()
		default:
			e.inst.Rollback(e.rec)
		}
	}
	t.mu.Unlock()
	t.clearUndo()
}

// clearUndo drops undo state but keeps capacity for reuse through the
// manager's pool.
func (t *Txn) clearUndo() {
	t.mu.Lock()
	clear(t.undo) // drop *Instance references for the GC
	t.undo = t.undo[:0]
	clear(t.undoSet)
	t.creates = 0
	t.mu.Unlock()
}

// Abort rolls back every write (reverse order) and releases all locks.
// Aborting a finished transaction is a no-op. Abort performs no log
// I/O: the redo log only ever sees committed transactions.
func (t *Txn) Abort() {
	if t.state != Active {
		return
	}
	t.state = Aborted
	if t.traceOn {
		t.trace.Add(obs.EvAbort, 0, t.abortReason)
	}
	if t.snapshot {
		// A snapshot txn holds no locks and wrote nothing: just leave
		// the reader registry. Counted as aborted — the caller bailed.
		t.endSnapshot(false)
		return
	}
	t.rollback()
	t.mgr.locks.ReleaseAll(t.ID)
	t.mgr.noteDone(false)
	t.finishTrace()
}

// endSnapshot finishes a snapshot transaction: deregister from the
// reclamation watermark and count the outcome. No lock-table or log
// interaction of any kind.
func (t *Txn) endSnapshot(committed bool) {
	t.mgr.store.EndSnapshot(&t.snapNode)
	if committed {
		t.state = Committed
	}
	t.mgr.noteDone(committed)
	t.finishTrace()
}

// Stats counts transaction outcomes.
type Stats struct {
	Begun     int64
	Committed int64
	Aborted   int64
	Retries   int64
	Snapshots int64 // transactions that ran on the lock-free snapshot path
}

// Manager hands out transactions with monotonically increasing IDs.
// ID assignment and outcome counters are atomics: beginning and
// finishing transactions never serialize behind a manager mutex, which
// matters once the sharded lock table stops being the bottleneck.
type Manager struct {
	locks  *lock.Manager
	wal    *wal.Log
	store  *storage.Store // links version records and hands out commit epochs
	flight *obs.FlightRecorder

	next      atomic.Uint64
	begun     obs.Counter
	committed obs.Counter
	aborted   obs.Counter
	retries   obs.Counter
	snapshots obs.Counter

	// MaxRetries bounds RunWithRetry (default 100).
	MaxRetries int
	// RetryBackoff is the base backoff between contention retries
	// (default 100µs, with ±50% jitter, doubling per attempt up to 64×).
	// The first retry of a call runs at once; only a second consecutive
	// failure sleeps, starting from the base. On a processor with
	// nothing else to run, the runtime rounds a sleep below a
	// millisecond up to one, so no delay is ever shorter than ≈1 ms.
	RetryBackoff time.Duration

	// rngState drives the backoff jitter: a seeded splitmix64 stepped
	// with one atomic add, so concurrent retry loops never contend on a
	// mutex (or on the global math/rand source, which this replaced).
	rngState atomic.Uint64

	// pool recycles finished transactions (with their undo slices and
	// dedup map) through RunWithRetry, making whole warm transactions
	// allocation-free.
	pool sync.Pool
}

// NewManager returns a transaction manager over the given lock table.
func NewManager(locks *lock.Manager) *Manager {
	m := &Manager{
		locks:        locks,
		MaxRetries:   100,
		RetryBackoff: 100 * time.Microsecond,
	}
	m.rngState.Store(0x9E3779B97F4A7C15) // fixed seed: deterministic jitter sequence
	return m
}

// Locks returns the underlying lock manager.
func (m *Manager) Locks() *lock.Manager { return m.locks }

// SetWAL attaches a redo log: every later Commit with effects blocks on
// its group-commit ticket. Attach before serving transactions.
func (m *Manager) SetWAL(w *wal.Log) { m.wal = w }

// SetStore attaches the object store: Write links version records
// through it, every commit with effects stamps them with an epoch drawn
// from it, and BeginSnapshot hands out lock-free snapshot transactions
// over them. Attach before serving transactions — writes and snapshot
// transactions require it.
func (m *Manager) SetStore(st *storage.Store) { m.store = st }

// Store returns the attached object store (nil when none).
func (m *Manager) Store() *storage.Store { return m.store }

// WAL returns the attached redo log (nil when volatile).
func (m *Manager) WAL() *wal.Log { return m.wal }

// SetFlight attaches a flight recorder: every Begin while the recorder
// is armed (threshold > 0) traces its transaction's events, and slow
// completions are captured. Attach before serving transactions.
func (m *Manager) SetFlight(fr *obs.FlightRecorder) { m.flight = fr }

// Flight returns the attached flight recorder (nil when none).
func (m *Manager) Flight() *obs.FlightRecorder { return m.flight }

// Begin starts a transaction, reusing a pooled one when available.
func (m *Manager) Begin() *Txn {
	t, _ := m.pool.Get().(*Txn)
	if t == nil {
		t = &Txn{undoSet: make(map[undoKey]int)}
	}
	t.ID = lock.TxnID(m.next.Add(1))
	t.mgr = m
	t.state = Active
	t.snapshot = false
	t.snapEpoch = 0
	t.done = nil
	t.traceOn = false
	if fr := m.flight; fr != nil && fr.Enabled() {
		t.traceOn = true
		t.abortReason = obs.AbortOther
		t.trace.Start(time.Now())
	}
	m.begun.Add(1)
	return t
}

// BeginSnapshot starts a snapshot transaction: it registers in the
// store's reclamation watermark, freezes its begin epoch, and from then
// on reads every instance as of that epoch. It acquires no locks,
// writes nothing, can never deadlock, and never blocks or aborts a
// writer. Requires an attached store.
func (m *Manager) BeginSnapshot() *Txn {
	t := m.Begin()
	t.snapshot = true
	t.snapEpoch = m.store.BeginSnapshot(&t.snapNode)
	m.snapshots.Add(1)
	return t
}

// RunReadOnly executes fn inside a snapshot transaction — the
// read-only fast path of RunWithRetry. There is no retry loop because
// there is nothing to retry: a snapshot transaction takes no locks, so
// it cannot deadlock, time out, or be chosen as a victim — which also
// leaves only two cancellation points, the check before begin and
// whatever fn itself observes through Txn.Done. fn must only perform
// reads (the engine enforces this statically via the access vectors;
// Writable is the runtime backstop). A failed fn counts as an abort.
// The *Txn is recycled after the call returns and must not be retained.
func (m *Manager) RunReadOnly(ctx context.Context, fn func(*Txn) error) error {
	done := ctx.Done()
	if done != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	t := m.BeginSnapshot()
	t.done = done
	err := fn(t)
	if err != nil {
		t.Abort()
	} else if t.state == Active {
		t.endSnapshot(true)
	}
	m.Release(t)
	return err
}

// Release returns a finished transaction to the pool. Only call when no
// reference to the Txn survives (RunWithRetry does this automatically);
// releasing an Active transaction is ignored.
func (m *Manager) Release(t *Txn) {
	if t.state == Active {
		return
	}
	m.pool.Put(t)
}

func (m *Manager) noteDone(committed bool) {
	if committed {
		m.committed.Add(1)
	} else {
		m.aborted.Add(1)
	}
}

// Snapshot returns a copy of the outcome counters without blocking
// concurrent transactions.
func (m *Manager) Snapshot() Stats {
	return Stats{
		Begun:     m.begun.Load(),
		Committed: m.committed.Load(),
		Aborted:   m.aborted.Load(),
		Retries:   m.retries.Load(),
		Snapshots: m.snapshots.Load(),
	}
}

// RegisterMetrics exports the outcome counters as series of reg. Call
// once per registry.
func (m *Manager) RegisterMetrics(reg *obs.Registry) {
	const outcomes = "Transactions by outcome (begun counts every Begin)."
	reg.RegisterCounter("favcc_txns_total", outcomes, `outcome="begun"`, &m.begun)
	reg.RegisterCounter("favcc_txns_total", outcomes, `outcome="committed"`, &m.committed)
	reg.RegisterCounter("favcc_txns_total", outcomes, `outcome="aborted"`, &m.aborted)
	reg.RegisterCounter("favcc_txn_retries_total", "Deadlock/timeout retry loops taken.", "", &m.retries)
	reg.RegisterCounter("favcc_snapshot_txns_total", "Transactions run on the snapshot path.", "", &m.snapshots)
}

// retryable reports whether a transaction failure is transient lock
// contention: a deadlock victim notice or a lock-wait timeout. Both
// mean "another transaction was in the way, not that yours is wrong" —
// a timeout is just a deadlock (or convoy) detected by the clock
// instead of the waits-for graph, so the retry loop treats them alike.
func retryable(err error) bool {
	return lock.IsDeadlock(err) || errors.Is(err, lock.ErrTimeout)
}

// ErrUnackedCommit reports a commit whose durability acknowledgment was
// abandoned on cancellation: the transaction committed — its record is
// sequenced, so it will harden with its batch and snapshots then read
// it — but the caller stopped waiting for the sync policy's
// confirmation. Follow up with a Sync barrier to know for certain.
var ErrUnackedCommit = errors.New("txn: commit sequenced but durability unconfirmed (wait canceled)")

// RunWithRetry executes fn inside a fresh transaction, committing on
// success. A deadlock abort or lock-wait timeout rolls back and retries
// with a new (younger) transaction — the standard user-level reaction
// to a deadlock victim notice: at once the first time, then after a
// jittered backoff (see RetryBackoff). Any other error aborts and is
// returned. The *Txn passed to fn is recycled after the call returns
// and must not be retained.
//
// ctx is honored at every blocking point: before each attempt, during
// lock waits (the engine threads the transaction's Done channel into
// every blocking acquire), across the retry backoff, and at the fsync
// wait. A cancellation mid-attempt aborts and rolls back the attempt; a
// cancellation during the durability wait cannot un-sequence the
// record, so it returns ErrUnackedCommit (wrapping ctx's error) with
// the commit applied. A context that can never be canceled costs
// nothing. Once the log has failed, every attempt runs as a snapshot at
// the frozen durable epoch: reads see the acknowledged prefix, and
// writes fail with ErrReadOnly.
func (m *Manager) RunWithRetry(ctx context.Context, fn func(*Txn) error) error {
	_, err := m.run(ctx, fn, false)
	return err
}

// RunWithRetryPipelined is RunWithRetry in pipelined-commit mode: on
// success it returns as soon as the commit record is sequenced, with a
// Future that resolves when the record is hardened per the log's sync
// policy. The caller decides how many futures to leave outstanding —
// the ack-vs-harden window is what overlaps execution with the fsync.
// The Future is not bound to ctx — bound the wait yourself with
// Future.WaitDone(ctx.Done()). On a volatile database (or for a
// read-only fn) the Future is already resolved.
func (m *Manager) RunWithRetryPipelined(ctx context.Context, fn func(*Txn) error) (Future, error) {
	return m.run(ctx, fn, true)
}

// run is the one retry loop. A nil ctx.Done() is the free path: no
// ctx.Err() poll, no timer, no allocation.
//
// The first retry after a deadlock or lock-wait timeout starts at once:
// the abort has released what the other side waited for, and the new
// attempt queues FIFO behind it on the first lock they share, so the
// lock queue is the backoff. A sleep there would idle the processor for
// the runtime's ≈1 ms timer granularity while the holder is
// microseconds from its commit. Only a second consecutive failure backs
// off, which with MaxRetries bounds livelock and starvation.
func (m *Manager) run(ctx context.Context, fn func(*Txn) error, pipelined bool) (Future, error) {
	done := ctx.Done()
	for attempt := 0; ; attempt++ {
		if done != nil && ctx.Err() != nil {
			return Future{}, ctx.Err()
		}
		var t *Txn
		if w := m.wal; w != nil && w.Failed() != nil {
			t = m.BeginSnapshot()
		} else {
			t = m.Begin()
		}
		t.done = done
		err := fn(t)
		if err == nil {
			fut, err := t.commit(pipelined)
			m.Release(t)
			if errors.Is(err, wal.ErrWaitCanceled) {
				err = fmt.Errorf("%w: %w", ErrUnackedCommit, ctx.Err())
			}
			return fut, err // a sequencing failure already rolled back
		}
		if t.traceOn {
			switch {
			case lock.IsDeadlock(err):
				t.abortReason = obs.AbortDeadlock
			case errors.Is(err, lock.ErrTimeout):
				t.abortReason = obs.AbortTimeout
			}
		}
		t.Abort()
		m.Release(t)
		if errors.Is(err, lock.ErrCanceled) && ctx.Err() != nil {
			// A canceled lock wait surfaces as the context's own error so
			// callers can test errors.Is(err, context.DeadlineExceeded).
			return Future{}, fmt.Errorf("txn: attempt canceled: %w (%v)", ctx.Err(), err)
		}
		if !retryable(err) {
			return Future{}, err
		}
		if attempt+1 >= m.MaxRetries {
			return Future{}, fmt.Errorf("txn: giving up after %d contention retries: %w", attempt+1, err)
		}
		m.retries.Add(1)
		if attempt > 0 {
			m.backoff(done, attempt-1)
		}
	}
}

// backoff sleeps the jittered delay before a call's second and later
// retries (attempt 0 is the second), returning early when done fires
// (the loop's next iteration then reports the cancellation). A delay
// below a millisecond lasts about one on an idle processor: the
// runtime's timer wait has millisecond granularity.
func (m *Manager) backoff(done <-chan struct{}, attempt int) {
	if m.RetryBackoff <= 0 {
		return
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	base := m.RetryBackoff << uint(shift)
	d := base/2 + time.Duration(m.nextRand()%uint64(base+1))
	if done == nil {
		time.Sleep(d)
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-done:
	}
}

// nextRand steps the manager's splitmix64 state: one atomic add plus
// pure mixing, so any number of goroutines draw jitter without sharing
// a lock.
func (m *Manager) nextRand() uint64 {
	x := m.rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
