package engine

import (
	"time"

	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/schema"
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
}

// newDBMetrics builds the registry: per-method send series from the
// runtime dispatch tables, the engine's own counters, the storage/MVCC
// gauges, and — registered by the layers that own them — the txn and
// lock series. The WAL registers its own when the database opens
// durable.
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

	// Engine execution counters: the Stats cells.
	reg.RegisterCounter("favcc_top_sends_total", "Top-level message sends.", "", &db.topSends)
	reg.RegisterCounter("favcc_nested_sends_total", "Nested self-directed sends.", "", &db.nestedSends)
	reg.RegisterCounter("favcc_scans_total", "Domain scans.", "", &db.scans)
	reg.RegisterCounter("favcc_instances_created_total", "Instances created.", "", &db.instancesCreated)
	reg.RegisterCounter("favcc_remote_sends_total", "Nested sends to another object.", "", &db.remoteSends)
	reg.RegisterCounter("favcc_field_reads_total", "Instance-variable reads.", "", &db.fieldReads)
	reg.RegisterCounter("favcc_field_writes_total", "Instance-variable writes.", "", &db.fieldWrites)
	reg.RegisterCounter("favcc_instances_visited_total", "Instances visited by domain scans.", "", &db.instancesVisited)

	db.Txns.RegisterMetrics(reg)
	db.Locks().RegisterMetrics(reg)

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

// noteSend records one finished top-level send, begun at
// obs.SampleStart, into the dense arrays: one class-array load, one
// method-array load, a histogram add and at most two counter increments
// — no maps, no allocation.
func (m *dbMetrics) noteSend(cls *schema.Class, mid schema.MethodID,
	snapshot bool, err error, start time.Time) {
	cm := &m.classes[cls.ID]
	if int(mid) >= len(cm.sendLat) {
		return
	}
	h := cm.sendLat[mid]
	if h == nil {
		return
	}
	h.Done(start)
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
