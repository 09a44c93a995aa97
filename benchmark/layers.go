package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/oodb"
)

// statSource is what the benchmark reads a layer's counters through:
// the public Stats() and metrics registry of an open database.
type statSource interface {
	Stats() oodb.Stats
	MetricsJSON(io.Writer) error
}

// engineSource presents an engine.DB opened directly (the restart
// workload) through the same two calls as the oodb facade.
type engineSource struct{ db *engine.DB }

func (e engineSource) Stats() oodb.Stats {
	ls, ts := e.db.Locks().Snapshot(), e.db.Txns.Snapshot()
	s := oodb.Stats{
		LockRequests: ls.Requests, Blocks: ls.Blocks, Deadlocks: ls.Deadlocks,
		Committed: ts.Committed, Aborted: ts.Aborted, Retries: ts.Retries, Snapshots: ts.Snapshots,
	}
	if w := e.db.Txns.WAL(); w != nil {
		ws := w.Stats()
		s.WALRecords, s.WALBatches, s.WALFsyncs, s.WALBytes, s.WALCheckpoints = ws.Records, ws.Batches, ws.Fsyncs, ws.Bytes, ws.Checkpoints
	}
	return s
}

func (e engineSource) MetricsJSON(w io.Writer) error {
	if reg := e.db.Metrics(); reg != nil {
		return reg.WriteJSON(w)
	}
	return nil
}

// counters is one reading of everything the count-type layer metrics
// are deltas of.
type counters struct {
	stats      oodb.Stats
	versions   float64 // version records published
	lockWaitS  float64 // summed lock-manager queue wait, seconds
	instances  float64 // live instances
	fsyncP50US float64 // median of the registry's fsync histogram since open
	mallocs    uint64
	cpuS       float64
}

func readCounters(src statSource) (counters, error) {
	c := counters{stats: src.Stats(), mallocs: mallocs(), cpuS: cpuSeconds()}
	var buf bytes.Buffer
	if err := src.MetricsJSON(&buf); err != nil {
		return c, err
	}
	var reg map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &reg); err != nil {
		return c, fmt.Errorf("metrics registry: %w", err)
	}
	scalar := func(name string) float64 {
		var v float64
		_ = json.Unmarshal(reg[name], &v) // an absent series reads as 0
		return v
	}
	hist := func(name string) (h struct{ Sum, P50 float64 }) {
		_ = json.Unmarshal(reg[name], &h) // an absent series reads as 0
		return h
	}
	c.versions = scalar("favcc_mvcc_versions_published_total")
	c.instances = scalar("favcc_store_instances")
	c.lockWaitS = hist("favcc_lock_wait_seconds").Sum
	c.fsyncP50US = hist("favcc_wal_fsync_seconds").P50 * 1e6
	return c, nil
}

// counterMetrics turns two readings taken around a timed phase into the
// count-type per-layer metrics. A layer a workload does not use reads 0
// here, which is the prediction written next to it in README.md.
func counterMetrics(before, after counters, txns int64) []metric {
	per := func(d, scale float64) float64 {
		if txns == 0 {
			return 0
		}
		return d * scale / float64(txns)
	}
	b, a := before.stats, after.stats
	fsyncs := float64(a.WALFsyncs - b.WALFsyncs)
	txnPerFsync := 0.0
	if fsyncs > 0 {
		txnPerFsync = float64(a.WALRecords-b.WALRecords) / fsyncs
	}
	return []metric{
		{Name: "oodb.allocs_per_txn", Unit: "count", Value: per(float64(after.mallocs-before.mallocs), 1)},
		{Name: "txn.retries_per_ktxn", Unit: "1/ktxn", Value: per(float64(a.Retries-b.Retries), 1e3)},
		{Name: "txn.aborts_per_ktxn", Unit: "1/ktxn", Value: per(float64(a.Aborted-b.Aborted), 1e3)},
		{Name: "lock.requests_per_txn", Unit: "count", Value: per(float64(a.LockRequests-b.LockRequests), 1)},
		{Name: "lock.blocks_per_ktxn", Unit: "1/ktxn", Value: per(float64(a.Blocks-b.Blocks), 1e3)},
		{Name: "lock.deadlocks_per_ktxn", Unit: "1/ktxn", Value: per(float64(a.Deadlocks-b.Deadlocks), 1e3)},
		{Name: "lock.wait_us_per_ktxn", Unit: "us/ktxn", Value: per((after.lockWaitS-before.lockWaitS)*1e6, 1e3)},
		{Name: "storage.versions_per_txn", Unit: "count", Value: per(after.versions-before.versions, 1)},
		{Name: "wal.txn_per_fsync", Unit: "count", Value: txnPerFsync},
		{Name: "wal.bytes_per_txn", Unit: "B", Value: per(float64(a.WALBytes-b.WALBytes), 1)},
		{Name: "bench.cpu_us_per_txn", Unit: "us", Value: per((after.cpuS-before.cpuS)*1e6, 1)},
	}
}

// layerMetrics is every per-layer metric a traced run prints, in print
// order: the probes' timings first, then the counts taken around the
// timed phase. Every workload prints all of them; a count a workload
// has no use for reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"core.compile_ms", "ms"},
	{"oodb.update_ns", "ns"},
	{"txn.begin_commit_ns", "ns"},
	{"txn.commit_durable_ns", "ns"},
	{"engine.send_ns", "ns"},
	{"engine.view_ns", "ns"},
	{"engine.create_delete_ns", "ns"},
	{"obs.send_tax_ns", "ns"},
	{"lock.acquire_release_ns", "ns"},
	{"storage.get_ns", "ns"},
	{"wal.wait_p50_us", "us"},
	{"wal.fsync_p50_us", "us"},
	{"serv.codec_ns", "ns"},
	{"serv.frame_ns", "ns"},
	{"client.start_ns", "ns"},
	{"client.view_rtt_us", "us"},
	{"bench.ack_p50_us", "us"},
	{"bench.ack_p90_us", "us"},
	{"bench.ack_p99_us", "us"},
	{"bench.cpu_us_per_txn", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"oodb.allocs_per_txn", "count"},
	{"txn.retries_per_ktxn", "1/ktxn"},
	{"txn.aborts_per_ktxn", "1/ktxn"},
	{"lock.requests_per_txn", "count"},
	{"lock.blocks_per_ktxn", "1/ktxn"},
	{"lock.deadlocks_per_ktxn", "1/ktxn"},
	{"lock.wait_us_per_ktxn", "us/ktxn"},
	{"storage.versions_per_txn", "count"},
	{"storage.heap_bytes_per_object", "B"},
	{"wal.txn_per_fsync", "count"},
	{"wal.bytes_per_txn", "B"},
	{"wal.checkpoint_objects_per_s", "1/s"},
	{"wal.replay_records_per_s", "1/s"},
	{"wal.checkpoint_bytes", "B"},
	{"wal.disk_bytes_per_object", "B"},
	{"serv.errors", "count"},
}

// completeLayerMetrics orders a traced run's metrics as layerMetrics
// lists them and adds, at 0, the counts the workload did not produce.
func completeLayerMetrics(got []metric) ([]metric, error) {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		m, ok := byName[lm.name]
		if !ok {
			m = metric{Name: lm.name, Unit: lm.unit}
		}
		if m.Unit != lm.unit {
			return nil, fmt.Errorf("metric %s printed in %s, listed in %s", m.Name, m.Unit, lm.unit)
		}
		out = append(out, m)
		delete(byName, lm.name)
	}
	for name := range byName {
		return nil, fmt.Errorf("metric %s is printed but not listed", name)
	}
	return out, nil
}
