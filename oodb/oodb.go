// Package oodb is the public API of the reproduction of Malta &
// Martinez, "Automating Fine Concurrency Control in Object-Oriented
// Databases" (ICDE 1993): an embeddable, in-memory object-oriented
// database whose concurrency control is derived at compile time from the
// source code of methods.
//
// The workflow mirrors the paper:
//
//	schema, err := oodb.Compile(source)          // parse + access-vector analysis
//	db, err := oodb.Open(schema, oodb.Fine)      // pick a locking protocol
//	err = db.Update(func(tx *oodb.Txn) error {   // strict 2PL with deadlock retry
//	    acct, err := tx.New("account", int64(100))
//	    _, err = tx.Send(acct, "deposit", int64(10))
//	    return err
//	})
//
// Methods are written in the paper's notation (see internal/mdl):
//
//	class account is
//	    instance variables are
//	        balance : integer
//	    method deposit(n) is
//	        balance := balance + n
//	    end
//	end
//
// Besides the paper's protocol (Fine), Open accepts the baselines the
// paper compares against — classical read/write instance locking with
// and without announced modes, run-time field locking, and the 1NF
// relational decomposition — so applications can measure what the finer
// modes buy them.
package oodb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Strategy selects a concurrency-control protocol.
type Strategy string

// Available protocols.
const (
	// Fine is the paper's contribution: per-method access modes derived
	// from transitive access vectors, one instance + one class lock per
	// top-level message (section 5).
	Fine Strategy = "fine"
	// ReadWrite is the instance-granule read/write baseline (section 3):
	// one control per message, escalation included.
	ReadWrite Strategy = "rw"
	// ReadWriteImplicit is the ORION-style baseline ([8]/[17], section
	// 5): read/write modes with implicit locking along the inheritance
	// graph (whole-extent accesses lock the domain root only).
	ReadWriteImplicit Strategy = "rw-implicit"
	// ReadWriteAnnounce is ReadWrite with the most exclusive mode
	// announced up front (the System R remedy).
	ReadWriteAnnounce Strategy = "rw-announce"
	// FieldLocking is run-time field-granule locking (Agrawal & El
	// Abbadi [1], discussed in section 6).
	FieldLocking Strategy = "field"
	// Relational locks the 1NF decomposition of the hierarchy
	// (sections 3 and 5.2).
	Relational Strategy = "relational"
)

// Strategies lists every available protocol.
func Strategies() []Strategy {
	return []Strategy{Fine, ReadWrite, ReadWriteImplicit, ReadWriteAnnounce, FieldLocking, Relational}
}

func (s Strategy) impl() (engine.Strategy, error) {
	for _, impl := range engine.Strategies() {
		if impl.Name() == string(s) {
			return impl, nil
		}
	}
	return nil, fmt.Errorf("oodb: unknown strategy %q", s)
}

// OID identifies a stored object.
type OID = storage.OID

// Option configures Compile.
type Option func(*options)

type options struct {
	overrides *core.Overrides
}

// WithCommuting declares ad hoc commutativity for two methods of a class
// (section 3: predefined classes such as escrow counters may be
// delivered with commutativity beyond what their access vectors allow).
// It applies to the class and to subclasses that do not override either
// method. Commuting writers of one field run concurrently and are undone
// and logged as integer deltas, so Compile rejects a declaration under
// which both methods write a field that is not an integer.
func WithCommuting(class, method1, method2 string) Option {
	return func(o *options) {
		if o.overrides == nil {
			o.overrides = core.NewOverrides()
		}
		o.overrides.Declare(class, method1, method2)
	}
}

// Schema is a compiled schema: classes, fields, methods, and the
// complete compile-time concurrency-control analysis.
type Schema struct {
	compiled *core.Compiled
}

// Compile parses mdl source and runs the paper's full pipeline:
// extraction of direct access vectors and self-call sets (defs 6–8),
// late-binding resolution graphs (def 9), transitive access vectors
// (def 10) and per-class commutativity tables (section 5.1).
func Compile(source string, opts ...Option) (*Schema, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var coreOpts []core.Option
	if o.overrides != nil {
		coreOpts = append(coreOpts, core.WithOverrides(o.overrides))
	}
	c, err := core.CompileSource(source, coreOpts...)
	if err != nil {
		return nil, err
	}
	return &Schema{compiled: c}, nil
}

// Classes returns the class names in declaration order.
func (s *Schema) Classes() []string {
	out := make([]string, len(s.compiled.Schema.Order))
	for i, c := range s.compiled.Schema.Order {
		out[i] = c.Name
	}
	return out
}

// Methods returns METHODS(class): every method name visible on proper
// instances of the class, sorted.
func (s *Schema) Methods(class string) []string {
	c := s.compiled.Schema.Class(class)
	if c == nil {
		return nil
	}
	return append([]string(nil), c.MethodList...)
}

// Fields returns FIELDS(class): every visible field name, inherited
// fields first.
func (s *Schema) Fields(class string) []string {
	c := s.compiled.Schema.Class(class)
	if c == nil {
		return nil
	}
	out := make([]string, len(c.Fields))
	for i, f := range c.Fields {
		out[i] = f.Name
	}
	return out
}

// AccessVector renders the transitive access vector of a method on
// proper instances of a class, in the paper's full-width notation.
func (s *Schema) AccessVector(class, method string) (string, error) {
	c := s.compiled.Schema.Class(class)
	if c == nil {
		return "", fmt.Errorf("oodb: unknown class %q", class)
	}
	tav, ok := s.compiled.TAV(c, method)
	if !ok {
		return "", fmt.Errorf("oodb: no method %q in class %s", method, class)
	}
	return tav.FormatFull(s.compiled.Schema, c.Fields), nil
}

// Commute reports whether two methods of a class commute — whether
// concurrent transactions may run them on a common instance.
func (s *Schema) Commute(class, method1, method2 string) (bool, error) {
	cc := s.compiled.Class(class)
	if cc == nil {
		return false, fmt.Errorf("oodb: unknown class %q", class)
	}
	if cc.Table.ModeIndex(method1) < 0 || cc.Table.ModeIndex(method2) < 0 {
		return false, fmt.Errorf("oodb: unknown method on class %s", class)
	}
	return cc.Table.Commutes(method1, method2), nil
}

// CommutativityTable renders the class's relation in the layout of the
// paper's Table 2.
func (s *Schema) CommutativityTable(class string) (string, error) {
	cc := s.compiled.Class(class)
	if cc == nil {
		return "", fmt.Errorf("oodb: unknown class %q", class)
	}
	return cc.Table.String(), nil
}

// ResolutionGraphDot renders the late-binding resolution graph of a
// class (the paper's Figure 2) in Graphviz DOT syntax.
func (s *Schema) ResolutionGraphDot(class string) (string, error) {
	cc := s.compiled.Class(class)
	if cc == nil {
		return "", fmt.Errorf("oodb: unknown class %q", class)
	}
	return cc.Graph.Dot(), nil
}

// Database is an open object database.
type Database struct {
	db *engine.DB
}

func init() {
	bridge.Engine = func(d any) *engine.DB { return d.(*Database).db }
}

// Close flushes and closes the redo log (no-op for a volatile
// database). In-flight commits complete durably first.
func (d *Database) Close() error { return d.db.Close() }

// Checkpoint compacts the redo log into a checkpoint of the store as of
// the commit epoch where it seals the segment (no-op when volatile).
func (d *Database) Checkpoint() error { return d.db.Checkpoint() }

// RecoveryStats describes what a durable Open found and replayed.
type RecoveryStats struct {
	Checkpoint      bool  // a checkpoint file was loaded
	SegmentsScanned int   // log segments replayed
	RecordsApplied  int64 // commit records applied
	TornTailBytes   int64 // bytes truncated off a crash-torn log tail
}

// Recovery reports what the durable Open replayed (zero value for a
// volatile database or a fresh directory).
func (d *Database) Recovery() RecoveryStats {
	info := d.db.Recovery()
	return RecoveryStats{
		Checkpoint:      info.Checkpoint,
		SegmentsScanned: info.Segments,
		RecordsApplied:  info.Records,
		TornTailBytes:   info.TornTailBytes,
	}
}

// Health describes whether the database can still accept writes. A
// durable database whose log hits an unrecoverable I/O error latches
// fail-stop and degrades to read-only: every transaction reads a
// snapshot of the acknowledged prefix (what recovery would reproduce),
// writes fail with an error matching IsReadOnly. Reopening the
// directory — after the disk is fixed — recovers that prefix and clears
// the condition.
type Health struct {
	// ReadOnly: the log has failed and writes are refused.
	ReadOnly bool
	// DiskFull: the failure was out-of-space specifically.
	DiskFull bool
	// Err is the original I/O failure (nil while healthy).
	Err error
}

// Health reports the database's write-availability state. A volatile
// database is always healthy.
func (d *Database) Health() Health {
	err := d.db.Failed()
	if err == nil {
		return Health{}
	}
	return Health{ReadOnly: true, DiskFull: errors.Is(err, wal.ErrDiskFull), Err: err}
}

// Txn is an open transaction bound to its database session.
type Txn struct {
	db *Database
	tx *txn.Txn
}

// Begin starts a transaction. Prefer Update for automatic deadlock
// retries; with Begin the caller must Commit or Abort and handle
// IsDeadlock errors itself.
func (d *Database) Begin() *Txn {
	return &Txn{db: d, tx: d.db.Begin()}
}

// Update runs fn in a transaction, committing on success, rolling back
// on error, and transparently retrying deadlock victims and lock-wait
// timeouts: the first retry at once, later ones after a jittered
// backoff of at least about a millisecond.
// The *Txn passed to fn is only valid inside the call: it is recycled
// when Update returns (and fn may run more than once on deadlock), so
// it must not be retained or used afterwards.
func (d *Database) Update(fn func(*Txn) error) error {
	return d.UpdateCtx(context.Background(), fn)
}

// UpdateCtx is Update honoring ctx at every blocking point: before each
// attempt, during lock waits (a cancellation withdraws the queued wait
// and aborts the attempt), across the deadlock-retry backoff, and at
// the commit's group-commit fsync wait. Cancellation surfaces as an
// error satisfying IsCanceled and wrapping ctx's own error, so
// errors.Is(err, context.DeadlineExceeded) works too.
//
// Every commit, whatever ctx, releases its locks once its record is
// sequenced and then waits for the log. A cancellation during that wait
// returns an IsUnackedCommit error: the transaction IS committed, and
// Views read it once the log acknowledges it. If the log fails instead,
// the IsReadOnly error comes back with the write in memory, where no
// reader sees it. A transaction that only read waits at commit while an
// earlier commit is unacknowledged, since it may have read its write.
func (d *Database) UpdateCtx(ctx context.Context, fn func(*Txn) error) error {
	return d.db.Txns.RunWithRetry(ctx, func(tx *txn.Txn) error {
		return fn(&Txn{db: d, tx: tx})
	})
}

// View runs fn in a read-only transaction on the lock-free multiversion
// read path: it takes no locks, never blocks or aborts a writer, and
// observes the committed, acknowledged slot values as of its begin
// epoch (an UpdateAsync commit once its Future resolves). An object
// whose delete has not committed is still there for it. Committed
// deletes are the one exception to snapshot isolation: a delete that
// commits after the View began removes the object from the View
// mid-flight (a lookup fails; a scan skips it) rather than leaving it
// visible at the begin epoch.
// Sends that could write — per the method's transitive access vector,
// decided at compile time — fail with an error matching
// IsSnapshotWrite, as do New and Delete.
func (d *Database) View(fn func(*Txn) error) error {
	return d.ViewCtx(context.Background(), fn)
}

// ViewCtx is View honoring ctx. The transaction never blocks, so the
// one cancellation point is the check before begin.
func (d *Database) ViewCtx(ctx context.Context, fn func(*Txn) error) error {
	return d.db.Txns.RunReadOnly(ctx, func(tx *txn.Txn) error {
		return fn(&Txn{db: d, tx: tx})
	})
}

// Future is the durability ticket of an UpdateAsync commit. The zero
// value — and the ticket of a read-only or volatile transaction — is
// already resolved.
type Future struct {
	f txn.Future
}

// Wait blocks until the commit is hardened per the database's sync
// policy and returns the outcome; Views begun after a nil return read
// it. A non-nil error means the log went fail-stop under the commit: its
// effects are in memory, but no reader sees them. Call at most once —
// the ticket is pooled and recycled by its first Wait.
func (f Future) Wait() error { return f.f.Wait() }

// WaitCtx is Wait bounded by ctx; call at most once, like Wait. A
// cancellation cannot unsequence the commit — it returns an
// IsUnackedCommit error (the commit will still harden with its batch;
// a background drainer recycles the ticket) wrapping ctx's error.
func (f Future) WaitCtx(ctx context.Context) error {
	err := f.f.WaitDone(ctx.Done())
	if errors.Is(err, wal.ErrWaitCanceled) {
		return fmt.Errorf("%w: %w", txn.ErrUnackedCommit, ctx.Err())
	}
	return err
}

// UpdateAsync is Update with a pipelined commit: it returns as soon as
// the transaction's commit record is sequenced in the log — the session
// can immediately run its next transaction while the group commit's
// fsync is in flight — together with a Future that resolves when the
// commit is durable (and Views read it). Transactions still serialize
// through strict 2PL, and a conflicting transaction can only commit
// after this one, so the durable log prefix is always
// conflict-consistent; what UpdateAsync relaxes is only *when the
// caller learns* the commit reached disk.
// Close, Sync and Checkpoint all drain outstanding futures.
func (d *Database) UpdateAsync(fn func(*Txn) error) (Future, error) {
	return d.UpdateAsyncCtx(context.Background(), fn)
}

// UpdateAsyncCtx is UpdateAsync honoring ctx before each attempt,
// during lock waits and across the retry backoff. The returned Future
// is not bound to ctx — the commit is already sequenced when
// UpdateAsyncCtx returns, so only the wait itself can still be bounded:
// use Future.WaitCtx. One group-commit fsync amortizes across every
// session with a future in flight.
func (d *Database) UpdateAsyncCtx(ctx context.Context, fn func(*Txn) error) (Future, error) {
	fut, err := d.db.Txns.RunWithRetryPipelined(ctx, func(tx *txn.Txn) error {
		return fn(&Txn{db: d, tx: tx})
	})
	return Future{f: fut}, err
}

// Sync is a durability barrier: it blocks until every commit
// acknowledged so far — including UpdateAsync commits whose futures
// have not been waited on — is fsynced, whatever the sync policy.
// No-op for a volatile database.
func (d *Database) Sync() error { return d.db.Sync() }

// Commit makes the transaction durable and releases its locks.
func (t *Txn) Commit() error { return t.tx.Commit() }

// Abort rolls back and releases locks.
func (t *Txn) Abort() { t.tx.Abort() }

// New creates an instance of class, with fields initialised positionally
// from Go values (int/int64, bool, string, OID).
func (t *Txn) New(class string, fieldValues ...any) (OID, error) {
	vals, err := storage.GoToValues(fieldValues)
	if err != nil {
		return 0, err
	}
	in, err := t.db.db.NewInstance(t.tx, class, vals...)
	if err != nil {
		return 0, err
	}
	return in.OID, nil
}

// Delete removes an object. The object is gone for this transaction at
// once and for everyone else when it commits; until then the deletion
// conflicts with any concurrent access to the object, and a View still
// reads it. Aborting the transaction leaves the object as it was.
func (t *Txn) Delete(oid OID) error {
	return t.db.db.DeleteInstance(t.tx, oid)
}

// Send delivers a message to an object and returns the method's result
// (int64, bool, string or OID; int64(0) for value-less returns).
func (t *Txn) Send(oid OID, method string, args ...any) (any, error) {
	vals, err := storage.GoToValues(args)
	if err != nil {
		return nil, err
	}
	out, err := t.db.db.Send(t.tx, oid, method, vals...)
	if err != nil {
		return nil, err
	}
	return storage.ValueToGo(out), nil
}

// ScanSend delivers a message to the instances of the domain rooted at
// class — the paper's accesses (ii)–(iv). With hierarchical=true the
// classes are locked as wholes and no instance locks are taken. It
// returns the number of instances visited.
func (t *Txn) ScanSend(class, method string, hierarchical bool, args ...any) (int, error) {
	vals, err := storage.GoToValues(args)
	if err != nil {
		return 0, err
	}
	return t.db.db.DomainScan(t.tx, class, method, hierarchical, nil, vals...)
}

// Stats aggregates lock-manager, transaction, engine and WAL counters.
// Each field reads the same cell the metrics registry exports as a
// favcc_*_total series (see README "Observability"): Stats and a scrape
// read one set of counters. Counters are cumulative from Open and nothing
// resets them: to measure a phase, take a Stats before it and subtract
// it from one taken after.
type Stats struct {
	LockRequests        int64
	Blocks              int64
	Deadlocks           int64
	EscalationDeadlocks int64
	Upgrades            int64
	Timeouts            int64
	ImmediateGrants     int64
	Reentrant           int64
	Releases            int64
	Committed           int64
	Aborted             int64
	Retries             int64
	Snapshots           int64
	TopSends            int64
	NestedSends         int64

	// WAL counters: zero on a volatile database.
	WALRecords     int64
	WALBatches     int64
	WALFsyncs      int64
	WALBytes       int64
	WALCheckpoints int64
}

// Stats returns cumulative counters for the database.
func (d *Database) Stats() Stats {
	ls := d.db.Locks().Snapshot()
	ts := d.db.Txns.Snapshot()
	es := d.db.Snapshot()
	s := Stats{
		LockRequests:        ls.Requests,
		Blocks:              ls.Blocks,
		Deadlocks:           ls.Deadlocks,
		EscalationDeadlocks: ls.EscalationDeadlocks,
		Upgrades:            ls.Upgrades,
		Timeouts:            ls.Timeouts,
		ImmediateGrants:     ls.ImmediateGrants,
		Reentrant:           ls.Reentrant,
		Releases:            ls.Releases,
		Committed:           ts.Committed,
		Aborted:             ts.Aborted,
		Retries:             ts.Retries,
		Snapshots:           ts.Snapshots,
		TopSends:            es.TopSends,
		NestedSends:         es.NestedSends,
	}
	if w := d.db.Txns.WAL(); w != nil {
		ws := w.Stats()
		s.WALRecords = ws.Records
		s.WALBatches = ws.Batches
		s.WALFsyncs = ws.Fsyncs
		s.WALBytes = ws.Bytes
		s.WALCheckpoints = ws.Checkpoints
	}
	return s
}

// Metrics returns the database's metrics registry — per-method latency
// histograms, abort/deadlock counters, WAL and MVCC telemetry. The
// registry snapshots without stopping writers; render it with
// WriteMetrics/MetricsJSON or mount it with DebugHandler.
func (d *Database) Metrics() *obs.Registry { return d.db.Metrics() }

// WriteMetrics renders the full metrics registry in Prometheus text
// exposition format (histograms as summaries with p50/p95/p99, _sum and
// _count; durations in seconds).
func (d *Database) WriteMetrics(w io.Writer) error { return d.db.Metrics().WritePrometheus(w) }

// MetricsJSON renders the registry as one flat expvar-style JSON
// object.
func (d *Database) MetricsJSON(w io.Writer) error { return d.db.Metrics().WriteJSON(w) }

// SlowTxn is a captured slow-transaction trace (see SlowTxns).
type SlowTxn = obs.SlowTxn

// SetSlowTxnThreshold arms (or re-tunes) the transaction flight
// recorder, which a database opens with disarmed; zero disarms it. Call
// it right after OpenWith to trace from the first transaction: recovery
// runs none. While armed, every transaction
// traces its events into a fixed in-transaction buffer (no allocation),
// and completions at or above the threshold are captured.
func (d *Database) SetSlowTxnThreshold(threshold time.Duration) {
	d.db.SetSlowTxnThreshold(threshold)
}

// SlowTxns returns the flight recorder's captured transactions, newest
// first: transaction ID, total latency, and the typed event trace
// (begin, lock waits over their resource, abort with reason, commit
// epoch, fsync wait). Empty until the recorder is armed and a slow
// transaction completes.
func (d *Database) SlowTxns() []SlowTxn { return d.db.SlowTxns() }

// DebugHandler returns an http.Handler exposing the observability
// surface — /metrics (Prometheus), /vars (JSON), /slowtxns, and
// /debug/pprof/* — for favcc/favbench's opt-in debug listener. Nothing
// starts a server unless the caller mounts this.
func (d *Database) DebugHandler() http.Handler {
	return obs.NewDebugHandler(d.db.Metrics(), d.db.Flight())
}

// DumpObject writes a labelled snapshot of an object's fields as a View
// begun now reads them, for debugging and examples.
func (d *Database) DumpObject(w io.Writer, oid OID) error {
	var r storage.SnapshotReader
	at := d.db.Store.BeginSnapshot(&r)
	defer d.db.Store.EndSnapshot(&r)
	in, ok := d.db.Store.Get(oid)
	if !ok || !in.SnapshotVisible(at, 0) {
		return fmt.Errorf("oodb: no object %d", oid)
	}
	fmt.Fprintf(w, "%s#%d {", in.Class.Name, oid)
	for i, f := range in.Class.Fields {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		v, _ := in.SnapshotGet(i, at)
		fmt.Fprintf(w, "%s: %s", f.Name, v)
	}
	fmt.Fprintln(w, "}")
	return nil
}
