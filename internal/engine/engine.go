package engine

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Value is re-exported for API convenience.
type Value = storage.Value

// Stats counts execution events, complementing lock.Stats for the
// overhead experiments.
type Stats struct {
	TopSends         int64
	NestedSends      int64
	RemoteSends      int64
	FieldReads       int64
	FieldWrites      int64
	Scans            int64
	InstancesVisited int64
	InstancesCreated int64
}

// DB is an object database: a compiled schema, a store, a lock manager,
// a transaction manager and one concurrency-control strategy, compiled
// into the Runtime's lock plans.
type DB struct {
	Compiled *core.Compiled
	Store    *storage.Store
	Txns     *txn.Manager

	// MaxSteps bounds interpreter work per top-level send (default 1e6).
	MaxSteps int
	// MaxDepth bounds send nesting (default 256).
	MaxDepth int

	rt     *Runtime
	ecPool sync.Pool // *execCtx, so a send allocates no context

	// metrics is the observability registry and its dense
	// per-(class,method) arrays (metrics.go); nil under
	// Options.NoMetrics, which strips every instrumented path to a
	// single nil check. flight is the transaction flight recorder —
	// always present, disarmed until SetSlowTxnThreshold.
	metrics *dbMetrics
	flight  obs.FlightRecorder

	recovery wal.RecoveryInfo

	// fieldLocks is the strategy's one run-time property (cc.go): every
	// field access locks its own granule.
	fieldLocks bool

	// useFused routes statically-bound super-sends through the fused
	// twin of the target program, as the dispatch tables route every
	// other send (false only in the differential suite's reference mode,
	// Options.unfused).
	useFused bool

	// The Stats cells, exported as series by newDBMetrics.
	topSends         obs.Counter
	nestedSends      obs.Counter
	remoteSends      obs.Counter
	fieldReads       obs.Counter
	fieldWrites      obs.Counter
	scans            obs.Counter
	instancesVisited obs.Counter
	instancesCreated obs.Counter
}

// Open is shorthand for OpenWithOptions(c, Options{Strategy: strategy}):
// a volatile database, which cannot fail to open.
func Open(c *core.Compiled, strategy Strategy) *DB {
	db, _ := OpenWithOptions(c, Options{Strategy: strategy})
	return db
}

// Runtime returns the precomputed run-time tables.
func (db *DB) Runtime() *Runtime { return db.rt }

// Locks returns the lock manager.
func (db *DB) Locks() *lock.Manager { return db.Txns.Locks() }

// Begin starts a transaction.
func (db *DB) Begin() *txn.Txn { return db.Txns.Begin() }

// RunWithRetry executes fn transactionally, retrying deadlock victims.
// db.Txns.RunWithRetry is the same honoring a context.
func (db *DB) RunWithRetry(fn func(*txn.Txn) error) error {
	return db.Txns.RunWithRetry(context.Background(), fn)
}

// RunWithRetryPipelined executes fn transactionally like RunWithRetry
// but commits pipelined: it returns as soon as the commit record is
// sequenced in the log, with a durability future that resolves when the
// record is hardened. The session can start its next transaction while
// the group commit's fsync is in flight. db.Txns.RunWithRetryPipelined
// is the same honoring a context.
func (db *DB) RunWithRetryPipelined(fn func(*txn.Txn) error) (txn.Future, error) {
	return db.Txns.RunWithRetryPipelined(context.Background(), fn)
}

// RunReadOnly executes fn as a snapshot transaction: zero lock-manager
// requests, no blocking, no deadlock (so no retry loop), reading the
// newest committed slot values at or below the transaction's begin
// epoch. Sound under every strategy — writers link a version record
// with every first write of a slot, independently of how they lock.
// A pending delete is such a record too, so fn reads its instance. A
// committed delete removes the instance from the store, so one that
// commits after this transaction began takes it out of its view
// (lookups fail, scans skip it) instead of leaving it visible at the
// begin epoch. Only methods whose transitive access vectors are
// write-free may be sent (others fail with txn.ErrSnapshotWrite).
// db.Txns.RunReadOnly is the same honoring a context.
func (db *DB) RunReadOnly(fn func(*txn.Txn) error) error {
	return db.Txns.RunReadOnly(context.Background(), fn)
}

// SnapshotSafe reports whether a method is statically read-only per its
// transitive access vector — the schema-build-time classification that
// licenses running it on the snapshot path. Callers routing whole
// transactions (e.g. the benchmark driver) ask this once per method,
// not per send.
func (db *DB) SnapshotSafe(classID uint32, mid schema.MethodID) bool {
	if int(classID) >= len(db.rt.classes) {
		return false
	}
	crt := &db.rt.classes[classID]
	return int(mid) < len(crt.snapRead) && crt.snapRead[mid]
}

// Snapshot returns the engine counters.
func (db *DB) Snapshot() Stats {
	return Stats{
		TopSends:         db.topSends.Load(),
		NestedSends:      db.nestedSends.Load(),
		RemoteSends:      db.remoteSends.Load(),
		FieldReads:       db.fieldReads.Load(),
		FieldWrites:      db.fieldWrites.Load(),
		Scans:            db.scans.Load(),
		InstancesVisited: db.instancesVisited.Load(),
		InstancesCreated: db.instancesCreated.Load(),
	}
}

// MethodID interns a method name for the ID-keyed fast paths (SendID,
// DomainScanID). Callers that send the same message repeatedly can
// intern once and skip the per-call map lookup.
func (db *DB) MethodID(name string) (schema.MethodID, bool) { return db.rt.MethodID(name) }

// ClassID interns a class name for the ID-keyed fast paths
// (DomainScanID).
func (db *DB) ClassID(name string) (uint32, bool) {
	c := db.Compiled.Schema.Class(name)
	if c == nil {
		return 0, false
	}
	return c.ID, true
}

// getEC takes a pooled execution context bound to tx. A snapshot
// transaction walks no lock plan and reads versions at its begin epoch;
// any other acquires through the lock manager on tx's behalf (a
// RecordingSession then points acq at its Recorder).
func (db *DB) getEC(tx *txn.Txn) *execCtx {
	ec := db.ecPool.Get().(*execCtx)
	ec.db = db
	ec.tx = tx
	ec.epoch = storage.LiveEpoch
	if tx.IsSnapshot() {
		ec.snapshot = true
		ec.epoch = tx.SnapshotEpoch()
	} else {
		ec.live = liveAcquirer{locks: db.Txns.Locks(), txn: tx.ID, trace: tx.Trace(), done: tx.Done()}
		ec.acq = &ec.live
	}
	ec.steps = db.MaxSteps
	return ec
}

// putEC recycles an execution context.
func (db *DB) putEC(ec *execCtx) {
	ec.db = nil
	ec.tx = nil
	ec.acq = nil
	ec.live = liveAcquirer{}
	ec.stack = ec.stack[:0] // balanced activations leave it empty already
	ec.execHeld = nil       // balanced activations released it already
	ec.ticks = 0
	ec.depth = 0
	ec.snapshot = false
	ec.epoch = 0
	ec.escrowMask = nil
	db.ecPool.Put(ec)
}

// NewInstance creates an instance of the named class inside tx.
func (db *DB) NewInstance(tx *txn.Txn, class string, vals ...Value) (*storage.Instance, error) {
	cls := db.Compiled.Schema.Class(class)
	if cls == nil {
		return nil, fmt.Errorf("engine: unknown class %q", class)
	}
	ec := db.getEC(tx)
	defer db.putEC(ec)
	return ec.create(cls, vals)
}

// Send delivers a top-level message: the paper's access (i). The method
// is resolved by late binding against the instance's proper class; the
// strategy locks before the first instruction executes.
func (db *DB) Send(tx *txn.Txn, oid storage.OID, method string, args ...Value) (Value, error) {
	ec := db.getEC(tx)
	defer db.putEC(ec)
	return ec.topSendName(oid, method, args)
}

// SendID is Send with a pre-interned method ID: the string-free fast
// path for hot loops (benchmarks, servers dispatching a fixed API).
func (db *DB) SendID(tx *txn.Txn, oid storage.OID, mid schema.MethodID, args ...Value) (Value, error) {
	ec := db.getEC(tx)
	defer db.putEC(ec)
	return ec.topSend(oid, mid, args)
}

// DeleteInstance deletes an object inside tx by linking a deletion
// marker on its chain. Its locks conflict with every access to the
// instance and with whole-extent scans. The instance is gone for tx at
// once and for everyone else when tx commits, which removes it from the
// store; an abort unlinks the marker.
func (db *DB) DeleteInstance(tx *txn.Txn, oid storage.OID) error {
	if err := tx.Writable(); err != nil {
		return err
	}
	ec := db.getEC(tx)
	defer db.putEC(ec)
	in, ok := db.Store.Get(oid)
	if !ok || !ec.visible(in) {
		return fmt.Errorf("engine: no instance with OID %d", oid)
	}
	if err := db.rt.class(in.Class).delete.acquire(ec.acq, uint64(oid)); err != nil {
		return err
	}
	if !ec.visible(in) { // deleted by the transaction this queued behind
		return fmt.Errorf("engine: no instance with OID %d", oid)
	}
	tx.LogDelete(in, db.Store.MarkDeleted(in, uint64(tx.ID)))
	return nil
}

// DomainScan delivers a message to instances of the domain rooted at
// class (accesses (ii)–(iv) of section 5.2). With hier=true every class
// of the domain is locked hierarchically and no instance locks are
// taken; with hier=false the classes are locked intentionally and each
// visited instance is locked individually. filter, when non-nil, selects
// the instances to visit (hier scans always visit all). It returns the
// number of instances the method ran on.
func (db *DB) DomainScan(tx *txn.Txn, class, method string, hier bool,
	filter func(*storage.Instance) bool, args ...Value) (int, error) {
	ec := db.getEC(tx)
	defer db.putEC(ec)
	return ec.domainScan(class, method, hier, filter, args)
}

// DomainScanID is DomainScan with the root class and method
// pre-interned: the string-free fast path for hot scan loops. The root
// class and method resolve by ID (two array loads), and the extent
// snapshot reuses a per-context buffer, so a warm scan performs no heap
// allocation at all.
func (db *DB) DomainScanID(tx *txn.Txn, classID uint32, mid schema.MethodID, hier bool,
	filter func(*storage.Instance) bool, args ...Value) (int, error) {
	ec := db.getEC(tx)
	defer db.putEC(ec)
	root := db.Compiled.Schema.ClassByID(classID)
	if root == nil {
		return 0, fmt.Errorf("engine: unknown class id %d", classID)
	}
	if root.ResolveID(mid) == nil {
		return 0, fmt.Errorf("engine: class %s has no method %q", root.Name, db.rt.MethodName(mid))
	}
	return ec.scanDomain(root, mid, hier, filter, args)
}

// RecordingSession executes transactions against a Recorder instead of
// the lock manager: every lock the strategy would request is captured
// and nothing ever blocks. Each call is one committed transaction, so
// its store mutations, creations included, are real — use a scratch
// database. This powers the section 5.2 scenario analysis.
type RecordingSession struct {
	db  *DB
	rec *Recorder
}

// NewRecordingSession returns a session recording into rec.
func (db *DB) NewRecordingSession(rec *Recorder) *RecordingSession {
	return &RecordingSession{db: db, rec: rec}
}

// run executes fn in one transaction, on a pooled context whose lock
// plans acquire into the session's Recorder.
func (rs *RecordingSession) run(fn func(*execCtx) error) error {
	return rs.db.RunWithRetry(func(tx *txn.Txn) error {
		ec := rs.db.getEC(tx)
		defer rs.db.putEC(ec)
		ec.acq = rs.rec
		return fn(ec)
	})
}

// Send mirrors DB.Send.
func (rs *RecordingSession) Send(oid storage.OID, method string, args ...Value) (Value, error) {
	var v Value
	err := rs.run(func(ec *execCtx) (err error) {
		v, err = ec.topSendName(oid, method, args)
		return err
	})
	return v, err
}

// DomainScan mirrors DB.DomainScan.
func (rs *RecordingSession) DomainScan(class, method string, hier bool,
	filter func(*storage.Instance) bool, args ...Value) (int, error) {
	var n int
	err := rs.run(func(ec *execCtx) (err error) {
		n, err = ec.domainScan(class, method, hier, filter, args)
		return err
	})
	return n, err
}

// NewInstance mirrors DB.NewInstance.
func (rs *RecordingSession) NewInstance(class string, vals ...Value) (*storage.Instance, error) {
	cls := rs.db.Compiled.Schema.Class(class)
	if cls == nil {
		return nil, fmt.Errorf("engine: unknown class %q", class)
	}
	var in *storage.Instance
	err := rs.run(func(ec *execCtx) (err error) {
		in, err = ec.create(cls, vals)
		return err
	})
	return in, err
}

// --- execution context ---

type execCtx struct {
	db   *DB
	tx   *txn.Txn     // never nil: every context runs inside a transaction
	acq  Acquirer     // nil under a snapshot transaction
	live liveAcquirer // backing storage for acq in live mode (no boxing)

	// stack is the shared VM value stack: the activation frames of
	// nested sends are consecutive spans of it (see vm.go). It is kept
	// across pooling, so a warm send allocates nothing.
	stack []Value

	// snap is the reusable domain-snapshot buffer of scanDomain — the
	// [][]OID header that used to cost one allocation per scan.
	snap [][]storage.OID

	// execHeld is the instance whose execution latch the current
	// activation chain holds (nil outside writing frames). Invariant:
	// at any frame boundary it is nil or the frame's own receiver —
	// remote sends and creates release it first (vm.go unlatch).
	execHeld *storage.Instance

	steps int
	ticks int
	depth int

	// snapshot routes execution to the multiversion read path: lock plans
	// are skipped, field reads resolve as of epoch (live cell, later
	// records rolled back), and any mutation fails with
	// txn.ErrSnapshotWrite (through tx.Writable). epoch is the snapshot's
	// begin epoch, or storage.LiveEpoch under a locking transaction.
	snapshot bool
	epoch    uint64

	// escrowMask is the current top-level method's escrow-slot mask on
	// the receiver's class (runtime buildEscrowSlots), bound by topSend
	// and the scan loop. A store to a masked slot is undone — and
	// redo-logged — as an integer delta rather than a before/after image,
	// because a commuting writer is not excluded by 2PL, and a writing
	// frame latches its receiver only while a mask is bound. nil for
	// every method without escrow slots, and under every protocol that
	// never grants two writers of one slot.
	escrowMask []bool
}

// unlatch releases the held execution latch before an operation that
// may block on the lock manager (remote send, create) and returns what
// to relatch afterwards.
func (ec *execCtx) unlatch() *storage.Instance {
	held := ec.execHeld
	if held != nil {
		ec.execHeld = nil
		held.UnlockExec()
	}
	return held
}

// relatch reacquires the latch released by unlatch.
func (ec *execCtx) relatch(held *storage.Instance) {
	if held != nil {
		held.LockExec()
		ec.execHeld = held
	}
}

// visible reports whether in exists for the context's transaction at
// the context's epoch (storage.Instance.SnapshotVisible). Another
// transaction's pending creation hides an instance, with no lock
// involved: a send to it, a write to it or its deletion would otherwise
// leak into, or vanish with, a creator that may still abort. A pending
// deletion hides it only from the deleter, whose locks exclude everyone
// else, so a locking context checks again once its lock is granted.
func (ec *execCtx) visible(in *storage.Instance) bool {
	return in.SnapshotVisible(ec.epoch, uint64(ec.tx.ID))
}

func (ec *execCtx) create(cls *schema.Class, vals []Value) (*storage.Instance, error) {
	if err := ec.tx.Writable(); err != nil {
		return nil, err
	}
	if err := ec.db.rt.class(cls).create.acquire(ec.acq, 0); err != nil {
		return nil, err
	}
	in, marker, err := ec.db.Store.NewUncommitted(uint64(ec.tx.ID), cls, vals...)
	if err != nil {
		return nil, err
	}
	ec.db.instancesCreated.Add(1)
	// An aborting creator removes its instance again; a committing one
	// stamps the marker and logs the creation with its full image.
	ec.tx.LogCreate(in, marker)
	return in, nil
}

// topSendName is the string API boundary: one interning lookup, then
// the ID-keyed path.
func (ec *execCtx) topSendName(oid storage.OID, method string, args []Value) (Value, error) {
	if mid, ok := ec.db.rt.MethodID(method); ok {
		return ec.topSend(oid, mid, args)
	}
	in, ok := ec.db.Store.Get(oid)
	if !ok {
		return Value{}, fmt.Errorf("engine: no instance with OID %d", oid)
	}
	return Value{}, fmt.Errorf("engine: class %s has no method %q", in.Class.Name, method)
}

// topSend resolves the receiver once and wraps the send with the
// per-(class,method) telemetry: when the registry is live, the finished
// send lands in its class's dense metric slot. Only a random 1 in
// obs.SampleEvery sends reads the clock; the rest are counted untimed.
// Stripped databases skip straight through on a nil check.
func (ec *execCtx) topSend(oid storage.OID, mid schema.MethodID, args []Value) (Value, error) {
	in, ok := ec.db.Store.Get(oid)
	if !ok {
		return Value{}, fmt.Errorf("engine: no instance with OID %d", oid)
	}
	m := ec.db.metrics
	if m == nil {
		return ec.topSendRaw(in, mid, args)
	}
	start := obs.SampleStart()
	v, err := ec.topSendRaw(in, mid, args)
	m.noteSend(in.Class, mid, ec.snapshot, err, start)
	return v, err
}

func (ec *execCtx) topSendRaw(in *storage.Instance, mid schema.MethodID, args []Value) (Value, error) {
	// The Runtime's per-(class,method) program table goes straight from
	// the interned ID to compiled code — dispatch is one array load.
	crt := &ec.db.rt.classes[in.Class.ID]
	prog := crt.progAt(mid)
	if prog == nil {
		return Value{}, fmt.Errorf("engine: class %s has no method %q",
			in.Class.Name, ec.db.rt.MethodName(mid))
	}
	if !ec.visible(in) {
		return Value{}, fmt.Errorf("engine: no instance with OID %d", in.OID)
	}
	if ec.snapshot {
		// No locks: eligibility is one bool load from the table the
		// schema build filled from the method's transitive access
		// vector. Writing methods are rejected here — before any
		// instruction runs — and remote sends re-enter through this
		// same gate, so a snapshot transaction can never reach a
		// mutation without its locks.
		if int(mid) >= len(crt.snapRead) || !crt.snapRead[mid] {
			return Value{}, fmt.Errorf("engine: %s.%s writes per its access vector: %w",
				in.Class.Name, ec.db.rt.MethodName(mid), ec.tx.Writable())
		}
	} else {
		if err := crt.plans[mid].top.acquire(ec.acq, uint64(in.OID)); err != nil {
			return Value{}, err
		}
		if !ec.visible(in) { // deleted by the transaction this send queued behind
			return Value{}, fmt.Errorf("engine: no instance with OID %d", in.OID)
		}
	}
	ec.db.topSends.Add(1)
	// Bind the method's escrow-slot mask for the activation, saving the
	// caller's: a nested remote send re-enters here, and its receiver's
	// mask must not leak back into the outer frame.
	prev := ec.escrowMask
	ec.escrowMask = crt.escrowMaskAt(mid)
	v, err := ec.invokeProg(in, prog, args)
	ec.escrowMask = prev
	return v, err
}

func (ec *execCtx) domainScan(class, method string, hier bool,
	filter func(*storage.Instance) bool, args []Value) (int, error) {
	root := ec.db.Compiled.Schema.Class(class)
	if root == nil {
		return 0, fmt.Errorf("engine: unknown class %q", class)
	}
	mid, ok := ec.db.rt.MethodID(method)
	if !ok || root.ResolveID(mid) == nil {
		return 0, fmt.Errorf("engine: class %s has no method %q", class, method)
	}
	return ec.scanDomain(root, mid, hier, filter, args)
}

// scanDomain is the one ID-resolved scan loop. The per-class extent
// snapshots land in the context's reusable buffer, so a warm scan
// allocates nothing.
//
// A snapshot transaction scans lock-free: its gate is the method's
// static read-only flag (snapRead) in place of the lock plans, and each
// visited instance is read at the snapshot's begin epoch. Instances
// whose creation had not committed when the snapshot began still carry
// a creation marker the snapshot rolls back, and are skipped. An
// instance whose delete has not committed still carries a pending
// deletion marker and is visited; one whose delete committed after the
// snapshot began has left the extent and is missed — the documented
// staleness of the snapshot contract. The hier flag does not apply
// there (there are no locks to choose a granularity for), so filter
// always selects; it sees the live instance, not the versioned image:
// use it for class dispatch, not value predicates.
func (ec *execCtx) scanDomain(root *schema.Class, mid schema.MethodID, hier bool,
	filter func(*storage.Instance) bool, args []Value) (int, error) {
	crt := ec.db.rt.class(root)
	if ec.snapshot {
		if int(mid) >= len(crt.snapRead) || !crt.snapRead[mid] {
			return 0, fmt.Errorf("engine: %s.%s writes per its access vector: %w",
				root.Name, ec.db.rt.MethodName(mid), ec.tx.Writable())
		}
		hier = false
	} else {
		plan := crt.plans[mid].scanIntent
		if hier {
			plan = crt.plans[mid].scanHier
		}
		if err := plan.acquire(ec.acq, 0); err != nil {
			return 0, err
		}
	}
	ec.db.scans.Add(1)

	count := 0
	ec.snap = ec.db.Store.DomainSnapshotInto(ec.snap[:0], root.Domain())
	for _, part := range ec.snap {
		for _, oid := range part {
			in, ok := ec.db.Store.Get(oid)
			if !ok || !ec.visible(in) {
				continue // deleted between snapshot and visit, or not yet created
			}
			vcrt := &ec.db.rt.classes[in.Class.ID]
			if !hier {
				if filter != nil && !filter(in) {
					continue
				}
				if !ec.snapshot {
					if err := vcrt.plans[mid].scanInstance.acquire(ec.acq, uint64(oid)); err != nil {
						ec.escrowMask = nil
						return count, err
					}
					if !ec.visible(in) {
						continue // deleted by the transaction this visit queued behind
					}
				}
			}
			// Per-instance bind: the mask is per (class, method), and a
			// hierarchical scan visits subclasses too.
			ec.escrowMask = vcrt.escrowMaskAt(mid)
			if _, err := ec.invokeProg(in, vcrt.progAt(mid), args); err != nil {
				ec.escrowMask = nil
				return count, err
			}
			ec.db.instancesVisited.Add(1)
			count++
		}
	}
	ec.escrowMask = nil
	return count, nil
}
