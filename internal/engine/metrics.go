package engine

import (
	"io"
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/wal"
)

// classMetrics is one class's per-method telemetry, indexed by interned
// schema.MethodID like every other run-time table (the PR-2 dense-ID
// discipline): the hot path goes from a method ID to its histogram with
// one array load — no maps, no string labels, no allocation. Slots are
// populated only where METHODS(C) binds the name (progs[mid] != nil);
// rendering labels happens once, at registration.
type classMetrics struct {
	sendLat   []*obs.Hist   // top-send latency, by MethodID
	aborts    []obs.Counter // sends returning an error
	deadlocks []obs.Counter // subset: deadlock victims
	snapSends []obs.Counter // sends served on the snapshot path
}

// dbMetrics owns the database's metrics registry and the dense
// per-(class,method) arrays behind it. Built once at Open, sized from
// the schema — the set of (class, method) series is static, matching
// the paper's schema-build-time analysis products.
type dbMetrics struct {
	reg     *obs.Registry
	classes []classMetrics // by schema.Class.ID

	lockWait *obs.Hist
}

// newDBMetrics builds the registry and wires every layer that exists at
// volatile open: per-method send series from the runtime dispatch
// tables, engine/txn/lock counters, the lock-manager wait histogram,
// and the storage/MVCC gauges. WAL series attach later (registerWAL)
// when the database opens durable.
func newDBMetrics(db *DB) *dbMetrics {
	s := db.Compiled.Schema
	nm := s.NumMethodNames()
	m := &dbMetrics{
		reg:     obs.NewRegistry(),
		classes: make([]classMetrics, s.NumClasses()),
	}
	reg := m.reg

	for _, cls := range s.Order {
		crt := &db.rt.classes[cls.ID]
		cm := &m.classes[cls.ID]
		cm.sendLat = make([]*obs.Hist, nm)
		cm.aborts = make([]obs.Counter, nm)
		cm.deadlocks = make([]obs.Counter, nm)
		cm.snapSends = make([]obs.Counter, nm)
		for _, name := range cls.MethodList {
			mid, ok := s.MethodID(name)
			if !ok || crt.progAt(mid) == nil {
				continue
			}
			labels := obs.Labels("class", cls.Name, "method", name)
			h := &obs.Hist{}
			cm.sendLat[mid] = h
			reg.RegisterHistogram("favcc_send_latency_seconds",
				"Top-level send latency by receiver class and method.", labels, true, h)
			reg.RegisterCounter("favcc_send_aborts_total",
				"Top-level sends that returned an error.", labels, &cm.aborts[mid])
			reg.RegisterCounter("favcc_send_deadlocks_total",
				"Top-level sends aborted as deadlock victims.", labels, &cm.deadlocks[mid])
			reg.RegisterCounter("favcc_snapshot_sends_total",
				"Top-level sends served on the lock-free snapshot path.", labels, &cm.snapSends[mid])
		}
	}

	// Engine execution counters (the Stats() atomics, re-exported).
	reg.CounterFunc("favcc_top_sends_total", "Top-level message sends.", "",
		db.topSends.Load)
	reg.CounterFunc("favcc_nested_sends_total", "Nested self-directed sends.", "",
		db.nestedSends.Load)
	reg.CounterFunc("favcc_scans_total", "Domain scans.", "", db.scans.Load)
	reg.CounterFunc("favcc_instances_created_total", "Instances created.", "",
		db.instancesCreated.Load)

	// Transaction outcomes.
	tm := db.Txns
	reg.CounterFunc("favcc_txns_total", "Transactions begun.", `outcome="begun"`,
		func() int64 { return tm.Snapshot().Begun })
	reg.CounterFunc("favcc_txns_total", "Transactions begun.", `outcome="committed"`,
		func() int64 { return tm.Snapshot().Committed })
	reg.CounterFunc("favcc_txns_total", "Transactions begun.", `outcome="aborted"`,
		func() int64 { return tm.Snapshot().Aborted })
	reg.CounterFunc("favcc_txn_retries_total", "Deadlock/timeout retry loops taken.", "",
		func() int64 { return tm.Snapshot().Retries })
	reg.CounterFunc("favcc_snapshot_txns_total", "Transactions run on the snapshot path.", "",
		func() int64 { return tm.Snapshot().Snapshots })

	// Lock manager: the counter set plus the wait-time histogram the
	// counters alone cannot express (Blocks says how often, not how long).
	lm := db.Locks()
	m.lockWait = reg.Histogram("favcc_lock_wait_seconds",
		"Lock-manager queue wait per blocking acquire.", "", true)
	lm.SetWaitHist(m.lockWait)
	reg.CounterFunc("favcc_lock_requests_total", "Lock acquire calls.", "",
		func() int64 { return lm.Snapshot().Requests })
	reg.CounterFunc("favcc_lock_blocks_total", "Acquires that queued.", "",
		func() int64 { return lm.Snapshot().Blocks })
	reg.CounterFunc("favcc_lock_deadlocks_total", "Deadlock victims.", "",
		func() int64 { return lm.Snapshot().Deadlocks })
	reg.CounterFunc("favcc_lock_timeouts_total", "Lock-wait timeouts.", "",
		func() int64 { return lm.Snapshot().Timeouts })
	reg.CounterFunc("favcc_lock_upgrades_total", "Lock conversion requests.", "",
		func() int64 { return lm.Snapshot().Upgrades })

	// Storage / MVCC: version churn, reclamation watermark lag, reader
	// population, slab occupancy.
	st := db.Store
	reg.CounterFunc("favcc_mvcc_versions_published_total",
		"Version records linked: first writes of a slot by a transaction, plus creation markers.", "", st.VersionsPublished)
	reg.CounterFunc("favcc_mvcc_versions_reclaimed_total",
		"Version records recycled by watermark pruning.", "", st.VersionsReclaimed)
	reg.GaugeFunc("favcc_mvcc_watermark_lag_epochs",
		"Stable epoch minus reclamation watermark (reader-held history).", "",
		func() int64 { return int64(st.StableEpoch() - st.SnapshotWatermark()) })
	reg.GaugeFunc("favcc_mvcc_active_snapshots",
		"Registered snapshot readers.", "",
		func() int64 { return int64(st.ActiveSnapshots()) })
	reg.GaugeFunc("favcc_store_pages", "Slab pages in the OID directory.", "",
		func() int64 { return int64(st.Pages()) })
	reg.GaugeFunc("favcc_store_instances", "Live instances.", "",
		func() int64 { return int64(st.Count()) })

	return m
}

// registerWAL attaches the group-commit telemetry once a redo log
// exists: fsync-latency and batch-size histograms recorded by the
// writer goroutine, the submit-queue depth gauge, and the cumulative
// log counters.
func (m *dbMetrics) registerWAL(log *wal.Log) {
	reg := m.reg
	fsync := reg.Histogram("favcc_wal_fsync_seconds",
		"Group-commit fsync wall time.", "", true)
	batch := reg.Histogram("favcc_wal_batch_records",
		"Commit records per group-commit batch.", "", false)
	log.SetMetrics(fsync, batch)
	reg.GaugeFunc("favcc_wal_queue_depth", "Commits waiting in the writer queue.", "",
		func() int64 { return int64(log.QueueDepth()) })
	reg.CounterFunc("favcc_wal_records_total", "Commit records appended.", "",
		func() int64 { return log.Stats().Records })
	reg.CounterFunc("favcc_wal_batches_total", "Group-commit batches written.", "",
		func() int64 { return log.Stats().Batches })
	reg.CounterFunc("favcc_wal_fsyncs_total", "Segment fsyncs issued.", "",
		func() int64 { return log.Stats().Fsyncs })
	reg.CounterFunc("favcc_wal_bytes_total", "Bytes appended to the log.", "",
		func() int64 { return log.Stats().Bytes })
	reg.CounterFunc("favcc_wal_checkpoints_total", "Checkpoints taken.", "",
		func() int64 { return log.Stats().Checkpoints })
}

// noteSend records one finished top-level send into the dense arrays.
// Called on the warm path with metrics enabled: one class-array load,
// one method-array load, a histogram Record and at most two counter
// increments — no maps, no allocation.
func (m *dbMetrics) noteSend(cls *schema.Class, mid schema.MethodID,
	snapshot bool, err error, d time.Duration) {
	cm := &m.classes[cls.ID]
	if int(mid) >= len(cm.sendLat) {
		return
	}
	h := cm.sendLat[mid]
	if h == nil {
		return
	}
	h.Record(d)
	if snapshot {
		cm.snapSends[mid].Inc()
	}
	if err != nil {
		cm.aborts[mid].Inc()
		if lock.IsDeadlock(err) {
			cm.deadlocks[mid].Inc()
		}
	}
}

// Metrics returns the database's metrics registry, or nil when the
// database was opened with Options.NoMetrics.
func (db *DB) Metrics() *obs.Registry {
	if db.metrics == nil {
		return nil
	}
	return db.metrics.reg
}

// Flight returns the database's transaction flight recorder. Always
// non-nil; disarmed (threshold 0) until SetSlowTxnThreshold.
func (db *DB) Flight() *obs.FlightRecorder { return &db.flight }

// SetSlowTxnThreshold arms the flight recorder: transactions begun
// while armed trace their events (begin, lock waits, abort reason,
// commit epoch, fsync wait) into a fixed in-Txn buffer, and completions
// at or above the threshold are captured for SlowTxns. Zero disarms.
func (db *DB) SetSlowTxnThreshold(d time.Duration) { db.flight.SetThreshold(d) }

// SlowTxns returns the flight recorder's captured transactions, newest
// first (empty until the recorder is armed and a slow txn completes).
func (db *DB) SlowTxns() []obs.SlowTxn { return db.flight.SlowTxns() }

// ResetStats zeroes the engine's execution counters (between experiment
// phases). Lock and transaction counters have their own ResetStats on
// their managers; oodb.Database.ResetStats resets all three.
func (db *DB) ResetStats() {
	db.topSends.Store(0)
	db.nestedSends.Store(0)
	db.remoteSends.Store(0)
	db.fieldReads.Store(0)
	db.fieldWrites.Store(0)
	db.scans.Store(0)
	db.instancesVisited.Store(0)
	db.instancesCreated.Store(0)
}

// WriteMetrics renders the registry as Prometheus text exposition (see
// obs.Registry.WritePrometheus). A no-op when metrics are stripped.
func (db *DB) WriteMetrics(w io.Writer) error {
	if db.metrics == nil {
		return nil
	}
	return db.metrics.reg.WritePrometheus(w)
}
