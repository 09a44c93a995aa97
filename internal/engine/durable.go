package engine

import (
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Options configures OpenWithOptions beyond the strategy choice.
type Options struct {
	// Strategy is the concurrency-control protocol (required).
	Strategy Strategy
	// Durable attaches a write-ahead redo log rooted at Dir: Open
	// recovers any existing checkpoint + log tail into the store, and
	// every later commit with effects blocks on (or, pipelined, hands
	// out a future for) the group-commit acknowledgment.
	Durable bool
	// Dir is the log directory (Durable only).
	Dir string
	// CheckpointBytes auto-checkpoints when the live log segment
	// exceeds this size (0 = manual Checkpoint only).
	CheckpointBytes int64
	// Sync is the hardening policy: wal.SyncAlways (default — every
	// acknowledged commit is on disk), wal.SyncEvery(d) (loss window
	// bounded by d), or wal.SyncNever (relaxed: survives process
	// crashes, not power loss).
	Sync wal.SyncPolicy
	// FS overrides the filesystem under the redo log (nil: the real
	// OS). Fault-injection tests stand a wal.FaultFS here to torture
	// the durable path and exercise degraded read-only mode.
	FS wal.FS
	// unfused dispatches the compiler's base programs instead of their
	// fused twins. It is a test seam for the differential suite, which
	// replays every transcript through both modes and pins them
	// byte-for-byte equal.
	unfused bool
	// NoMetrics strips the observability registry entirely: no
	// per-method series, no lock-wait or WAL histograms, Metrics()
	// returns nil. The instrumented paths reduce to one nil check; the
	// benchmark's obs.send_tax_ns probe opens both ways and diffs the
	// send cost. oodb always opens with metrics.
	NoMetrics bool
}

// OpenWithOptions builds a database around a compiled schema with fresh
// store, lock and transaction managers, precomputing the run-time
// tables and compiling the strategy to lock plans. The dispatch tables
// bind each method's superinstruction-fused program (schema.Fuse);
// every nested send pushes its own frame, so MaxDepth and MaxSteps see
// each one. When o.Durable is set it recovers the durable state under
// o.Dir and wires the redo log through the transaction manager.
func OpenWithOptions(c *core.Compiled, o Options) (*DB, error) {
	fused := !o.unfused
	p := o.Strategy.protocol()
	db := &DB{
		Compiled:   c,
		Store:      storage.NewStore(c.Schema),
		Txns:       txn.NewManager(lock.NewManager()),
		rt:         newRuntime(c, p, fused),
		MaxSteps:   1_000_000,
		MaxDepth:   256,
		useFused:   fused,
		fieldLocks: p.fieldLocks,
	}
	// Wire the store into the transaction manager: writes link version
	// records through it and commits stamp them with an epoch drawn from
	// it, which is what the snapshot read path consumes.
	db.Txns.SetStore(db.Store)
	// The flight recorder is always attached (it is one atomic load per
	// Begin while disarmed); the metrics registry is the default but can
	// be stripped.
	db.Txns.SetFlight(&db.flight)
	if !o.NoMetrics {
		db.metrics = newDBMetrics(db)
	}
	db.ecPool.New = func() any { return &execCtx{} }
	if !o.Durable {
		return db, nil
	}
	log, info, err := wal.Open(o.Dir, db.Store, wal.Options{
		CheckpointBytes: o.CheckpointBytes,
		Sync:            o.Sync,
		FS:              o.FS,
	})
	if err != nil {
		return nil, err
	}
	db.Txns.SetWAL(log)
	if db.metrics != nil {
		log.RegisterMetrics(db.metrics.reg)
	}
	db.recovery = info
	return db, nil
}

// Recovery reports what the durable open replayed (zero value when the
// database is volatile).
func (db *DB) Recovery() wal.RecoveryInfo { return db.recovery }

// Failed reports the redo log's latched fail-stop error: nil while the
// database is volatile or healthy, otherwise the original I/O failure
// (matching wal.ErrLogFailed, and wal.ErrDiskFull on out-of-space).
// Once non-nil the database is degraded: the retry loop runs every
// transaction as a snapshot of the acknowledged prefix, writes fail with
// txn.ErrReadOnly, and only a reopen can clear it.
func (db *DB) Failed() error {
	if w := db.Txns.WAL(); w != nil {
		return w.Failed()
	}
	return nil
}

// Sync is a durability barrier: it blocks until every commit sequenced
// so far — including pipelined commits whose futures have not been
// waited on — is written and fsynced, regardless of the sync policy.
// No-op for a volatile database.
func (db *DB) Sync() error {
	if w := db.Txns.WAL(); w != nil {
		return w.Sync(nil)
	}
	return nil
}

// Checkpoint compacts the redo log (no-op for a volatile database) into
// a checkpoint of the store as of the epoch where it seals the segment.
// Every future handed out before the call resolves durable; commits
// pause only for the seal, not the serialization (wal.Log.Checkpoint).
func (db *DB) Checkpoint() error {
	if w := db.Txns.WAL(); w != nil {
		return w.Checkpoint()
	}
	return nil
}

// Close flushes and closes the redo log. In-flight commits complete and
// outstanding pipelined futures resolve; later durable commits fail.
// Closing a volatile database is a no-op.
func (db *DB) Close() error {
	if w := db.Txns.WAL(); w != nil {
		return w.Close()
	}
	return nil
}
