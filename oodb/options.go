package oodb

import (
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Options is the whole open-time configuration as one plain struct, so
// a server configuration (favserv's flags, a config file) maps 1:1 onto
// it. The zero value is a volatile database with full-sync semantics
// (moot while volatile), metrics on, and the flight recorder disarmed.
//
// The sync policy is the tri-state the WAL implements:
//
//   - both SyncEvery and SyncNever unset (default): every acknowledged
//     commit batch is fsynced before its transactions release locks; a
//     crash at any point loses nothing acknowledged.
//   - SyncEvery = d > 0: commits are acknowledged after the buffered OS
//     write and the log fsyncs at most every d — even when idle, any
//     unsynced commit is hardened within d of its write; power loss
//     costs at most the last d of acknowledged commits (the Redis
//     "everysec" middle point).
//   - SyncNever = true: acknowledged after the buffered write only (the
//     log still fsyncs on checkpoint, Sync and Close); a process crash
//     loses nothing, power loss may lose the most recent commits.
//
// Setting both SyncEvery and SyncNever is a configuration error.
type Options struct {
	// Dir, when non-empty, makes the database persistent under this
	// directory: OpenWith recovers any existing checkpoint + redo-log
	// tail (crash-safe, torn-tail tolerant) and every later commit goes
	// through the write-ahead log, batched by group commit. Close the
	// database to flush cleanly.
	Dir string
	// GroupCommitWindow is how long the log's writer goroutine waits
	// for more concurrent commits to share one fsync (0: batch only
	// what is already queued). Larger windows trade commit latency for
	// fewer fsyncs under load.
	GroupCommitWindow time.Duration
	// CheckpointEveryBytes auto-compacts the log whenever the live
	// segment exceeds this size (0: only Database.Checkpoint compacts).
	CheckpointEveryBytes int64
	// SyncEvery bounds the durability loss window to d instead of
	// paying an fsync per commit batch (see the policy table above).
	SyncEvery time.Duration
	// SyncNever acknowledges commits after the buffered OS write.
	SyncNever bool
	// NoMetrics strips the observability registry: Metrics returns nil
	// and the instrumented hot paths reduce to a nil check. The default
	// keeps metrics on — the overhead is a clock read and a few atomic
	// adds per send (measured in EXPERIMENTS.md).
	NoMetrics bool
	// SlowTxnThreshold arms the transaction flight recorder from the
	// start: any transaction slower than this captures its typed event
	// trace (begin, lock waits, abort reason, commit epoch, fsync wait)
	// for SlowTxns (0: disarmed until SetSlowTxnThreshold).
	SlowTxnThreshold time.Duration

	// fs stands a filesystem (typically a wal.FaultFS) under the redo
	// log. Test-only: the failure-injection suites use it to drive the
	// public API onto a hostile disk; it is deliberately unexported.
	fs wal.FS
}

// DefaultOptions returns the zero configuration: volatile, full sync,
// metrics on.
func DefaultOptions() Options { return Options{} }

// Open is shorthand for OpenWith(s, strategy, Options{}): a volatile
// database over a compiled schema with the chosen concurrency-control
// strategy.
func Open(s *Schema, strategy Strategy) (*Database, error) {
	return OpenWith(s, strategy, Options{})
}

// OpenWith creates a database over a compiled schema with the chosen
// concurrency-control strategy and configuration. A non-empty
// Options.Dir adds the write-ahead log, checkpoints and crash recovery:
//
//	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{Dir: "/data/app"})
func OpenWith(s *Schema, strategy Strategy, o Options) (*Database, error) {
	if o.SyncEvery > 0 && o.SyncNever {
		return nil, errSyncConflict
	}
	impl, err := strategy.impl()
	if err != nil {
		return nil, err
	}
	var sync wal.SyncPolicy
	switch {
	case o.SyncEvery > 0:
		sync = wal.SyncEvery(o.SyncEvery)
	case o.SyncNever:
		sync = wal.SyncNever
	}
	db, err := engine.OpenWithOptions(s.compiled, engine.Options{
		Strategy:          impl,
		Durable:           o.Dir != "",
		Dir:               o.Dir,
		GroupCommitWindow: o.GroupCommitWindow,
		CheckpointBytes:   o.CheckpointEveryBytes,
		Sync:              sync,
		FS:                o.fs,
		NoMetrics:         o.NoMetrics,
		SlowTxnThreshold:  o.SlowTxnThreshold,
	})
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

var errSyncConflict = &Error{Code: CodeOther, Msg: "oodb: Options.SyncEvery and Options.SyncNever are mutually exclusive"}
