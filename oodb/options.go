package oodb

import (
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Options is the whole open-time configuration as one plain struct, so
// a server configuration (favserv's flags, a config file) maps 1:1 onto
// it. The zero value is a volatile database with full-sync semantics
// (moot while volatile). Metrics are always on; the flight recorder
// starts disarmed, and SetSlowTxnThreshold arms it.
type Options struct {
	// Dir, when non-empty, makes the database persistent under this
	// directory: OpenWith recovers any existing checkpoint + redo-log
	// tail (crash-safe, torn-tail tolerant) and every later commit goes
	// through the write-ahead log, batched by group commit. Close the
	// database to flush cleanly.
	Dir string
	// CheckpointEveryBytes auto-compacts the log whenever the live
	// segment exceeds this size (0: only Database.Checkpoint compacts).
	CheckpointEveryBytes int64
	// Sync decides when a durable commit is acknowledged: SyncAlways
	// (the zero value), SyncEvery(d) or SyncNever. See SyncPolicy.
	Sync SyncPolicy
	// fs stands a filesystem (typically a wal.FaultFS) under the redo
	// log. Test-only: the failure-injection suites use it to drive the
	// public API onto a hostile disk; it is deliberately unexported.
	fs wal.FS
}

// SyncPolicy is the durability policy the write-ahead log implements:
//
//   - SyncAlways (default): every acknowledged commit batch is fsynced
//     before its transactions release locks; a crash at any point loses
//     nothing acknowledged.
//   - SyncEvery(d): commits are acknowledged after the buffered OS write
//     and the log fsyncs at most every d — even when idle, any unsynced
//     commit is hardened within d of its write; power loss costs at most
//     the last d of acknowledged commits (the Redis "everysec" middle
//     point).
//   - SyncNever: acknowledged after the buffered write only (the log
//     still fsyncs on checkpoint, Sync and Close); a process crash loses
//     nothing, power loss may lose the most recent commits.
type SyncPolicy = wal.SyncPolicy

// The fixed sync policies. SyncAlways is the zero SyncPolicy.
var (
	SyncAlways = wal.SyncAlways
	SyncNever  = wal.SyncNever
)

// SyncEvery returns the policy that fsyncs at most every d. A
// non-positive d is SyncAlways.
func SyncEvery(d time.Duration) SyncPolicy { return wal.SyncEvery(d) }

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
	impl, err := strategy.impl()
	if err != nil {
		return nil, err
	}
	db, err := engine.OpenWithOptions(s.compiled, engine.Options{
		Strategy:        impl,
		Durable:         o.Dir != "",
		Dir:             o.Dir,
		CheckpointBytes: o.CheckpointEveryBytes,
		Sync:            o.Sync,
		FS:              o.fs,
	})
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}
