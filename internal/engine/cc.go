// Package engine executes methods against the object store under a
// pluggable concurrency-control strategy. The interpreter implements the
// calling mechanism of section 2.2 — late binding for self-directed
// messages, prefixed (super) calls, messages to referenced instances —
// and delegates every locking decision to a Strategy, so the paper's
// protocol (section 5.2) and the baselines it argues against (sections 3
// and 6) run the same workloads on the same substrate.
package engine

import (
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Acquirer abstracts lock acquisition so a strategy can either lock for
// real (live transaction) or record the lock set it would take (the
// section 5.2 scenario analysis in internal/bench).
type Acquirer interface {
	Acquire(res lock.ResourceID, mode lock.Mode) error
}

// Strategy decides which locks each execution event takes. Methods are
// identified by interned schema.MethodID and every per-class artefact
// (access-mode index, lock resource, writer bit, relational plan) comes
// from the Runtime's precomputed tables, so a strategy call performs no
// string hashing and no allocation. Engine hooks:
//
//	TopSend      — a message arrives at an instance from outside
//	               (a transaction boundary crossing, the paper's "top
//	               message"), including messages sent to *other*
//	               instances from inside a method;
//	NestedSend   — a self-directed message during execution (plain or
//	               prefixed);
//	FieldAccess  — one field read or write at run time;
//	Scan         — a class-extension or domain access (section 5.2
//	               accesses (ii)–(iv)); root is the scanned domain's
//	               root class (the Runtime caches its closure), hier
//	               tells whether instances are locked implicitly;
//	ScanInstance — one instance visited by a non-hierarchical scan;
//	Create       — instance creation in a class;
//	Delete       — instance deletion (conflicts with any access to the
//	               instance under every protocol).
type Strategy interface {
	Name() string
	// ConcurrentWriters reports whether the protocol can grant two
	// transactions writing the same instance simultaneously. True only
	// for the fine method-mode tables: declared (escrow-style)
	// commutativity admits concurrent writers of one slot, so the
	// engine must additionally serialize writing method activations on
	// the instance's execution latch. Protocols that answer true must
	// never acquire lock-manager locks from their NestedSend or
	// FieldAccess hooks — those run while the latch is held.
	ConcurrentWriters() bool
	TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error
	NestedSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error
	FieldAccess(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, f *schema.Field, write bool) error
	Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error
	ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error
	Create(a Acquirer, rt *Runtime, cls *schema.Class) error
	Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error
}

// liveAcquirer locks through the lock manager on behalf of one txn.
// trace, non-nil only while the flight recorder is armed for this
// transaction, receives a lock-wait event for every acquire that
// queued. done, non-nil only when the caller bound a cancellable
// context to the transaction, withdraws queued waits on cancellation.
type liveAcquirer struct {
	locks *lock.Manager
	txn   lock.TxnID
	trace *obs.TxnTrace
	done  <-chan struct{}
}

// Acquire implements Acquirer.
func (l liveAcquirer) Acquire(res lock.ResourceID, mode lock.Mode) error {
	waited, err := l.locks.AcquireWaitDone(l.txn, res, mode, l.done)
	if l.trace != nil && waited > 0 {
		l.trace.Add(obs.EvLockWait, waited, res.OID)
	}
	return err
}

// Recorder collects the lock set a strategy would take, deduplicated,
// in request order. It never blocks.
type Recorder struct {
	Requests []RecordedLock
	seen     map[RecordedLock]bool
}

// RecordedLock is one (resource, mode) pair.
type RecordedLock struct {
	Res  lock.ResourceID
	Mode lock.Mode
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: make(map[RecordedLock]bool)}
}

// Acquire implements Acquirer.
func (r *Recorder) Acquire(res lock.ResourceID, mode lock.Mode) error {
	rl := RecordedLock{Res: res, Mode: mode}
	if !r.seen[rl] {
		r.seen[rl] = true
		r.Requests = append(r.Requests, rl)
	}
	return nil
}

// Conflicts reports whether any lock recorded by r conflicts with any
// lock recorded by other on the same resource — i.e. whether the two
// transactions could NOT run concurrently under strict 2PL.
func (r *Recorder) Conflicts(other *Recorder) bool {
	byRes := make(map[lock.ResourceID][]lock.Mode, len(r.Requests))
	for _, rl := range r.Requests {
		byRes[rl.Res] = append(byRes[rl.Res], rl.Mode)
	}
	for _, rl := range other.Requests {
		for _, m := range byRes[rl.Res] {
			if !m.Compatible(rl.Mode) {
				return true
			}
		}
	}
	return false
}
