package engine

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestLayerStatsAreSeries: every field of the engine, lock, txn and WAL
// Stats is a series of the database's registry and reads the same cell.
// Figure 1 traffic moves them: nested and remote sends, field reads and
// writes, a hierarchical scan, a creation and a checkpoint.
func TestLayerStatsAreSeries(t *testing.T) {
	db := openDurable(t, paperex.Figure1, t.TempDir())
	defer db.Close()
	oid, _ := seedC2(t, db, true)
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		if _, err := db.Send(tx, oid, "m1", storage.IntV(1)); err != nil {
			return err
		}
		if _, err := db.Send(tx, oid, "m3"); err != nil { // f2 true: a remote send
			return err
		}
		_, err := db.DomainScan(tx, "c1", "m3", true, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var reg map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	check := func(stats any, names map[string]string) {
		t.Helper()
		v := reflect.ValueOf(stats)
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i).Name
			key, ok := names[field]
			if !ok {
				t.Errorf("%s.%s has no series", v.Type(), field)
				continue
			}
			var got int64
			if err := json.Unmarshal(reg[key], &got); err != nil {
				t.Errorf("%s.%s: series %s: %v", v.Type(), field, key, err)
				continue
			}
			if want := v.Field(i).Int(); got != want {
				t.Errorf("%s.%s = %d, series %s = %d", v.Type(), field, want, key, got)
			}
		}
	}
	es := db.Snapshot()
	if es.RemoteSends == 0 || es.FieldReads == 0 || es.FieldWrites == 0 || es.InstancesVisited == 0 {
		t.Errorf("traffic left engine counters at zero: %+v", es)
	}
	check(es, map[string]string{
		"TopSends":         "favcc_top_sends_total",
		"NestedSends":      "favcc_nested_sends_total",
		"RemoteSends":      "favcc_remote_sends_total",
		"FieldReads":       "favcc_field_reads_total",
		"FieldWrites":      "favcc_field_writes_total",
		"Scans":            "favcc_scans_total",
		"InstancesVisited": "favcc_instances_visited_total",
		"InstancesCreated": "favcc_instances_created_total",
	})
	check(db.Locks().Snapshot(), map[string]string{
		"Requests":            "favcc_lock_requests_total",
		"Reentrant":           "favcc_lock_reentrant_total",
		"ImmediateGrants":     "favcc_lock_immediate_grants_total",
		"Blocks":              "favcc_lock_blocks_total",
		"Upgrades":            "favcc_lock_upgrades_total",
		"Deadlocks":           "favcc_lock_deadlocks_total",
		"EscalationDeadlocks": "favcc_lock_escalation_deadlocks_total",
		"Timeouts":            "favcc_lock_timeouts_total",
		"Releases":            "favcc_lock_releases_total",
	})
	check(db.Txns.Snapshot(), map[string]string{
		"Begun":     `favcc_txns_total{outcome="begun"}`,
		"Committed": `favcc_txns_total{outcome="committed"}`,
		"Aborted":   `favcc_txns_total{outcome="aborted"}`,
		"Retries":   "favcc_txn_retries_total",
		"Snapshots": "favcc_snapshot_txns_total",
	})
	check(db.Txns.WAL().Stats(), map[string]string{
		"Records":     "favcc_wal_records_total",
		"Batches":     "favcc_wal_batches_total",
		"Fsyncs":      "favcc_wal_fsyncs_total",
		"Bytes":       "favcc_wal_bytes_total",
		"Checkpoints": "favcc_wal_checkpoints_total",
	})
}

// TestSendLatencySampled: two goroutines each repeat one fixed 4-send
// transaction shape (m1, m2, m3, m4 on their own c2 instance) 32 Ki
// times. Every send is counted, so each method's _count is exactly the
// number of its sends; only sampled sends are timed, and sampling at
// random (not every SampleEvery-th send of a pooled context, which a
// 4-send shape would alias with) leaves every method with samples.
func TestSendLatencySampled(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	const workers, per = 2, 32 << 10
	shape := []struct {
		method string
		args   []Value
	}{
		{"m1", []Value{storage.IntV(1)}},
		{"m2", []Value{storage.IntV(2)}},
		{"m3", nil},
		{"m4", []Value{storage.IntV(1), storage.IntV(2)}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		oid, _ := seedC2(t, db, false)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					for _, s := range shape {
						if _, err := db.Send(tx, oid, s.method, s.args...); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var reg map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	for _, s := range shape {
		key := `favcc_send_latency_seconds{class="c2",method="` + s.method + `"}`
		var h struct {
			Count int64
			Sum   float64
			P99   float64
		}
		if err := json.Unmarshal(reg[key], &h); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if h.Count != workers*per {
			t.Errorf("%s count = %d, want %d", key, h.Count, workers*per)
		}
		if h.Sum <= 0 || h.P99 <= 0 {
			t.Errorf("%s has no timed sample: sum %g, p99 %g", key, h.Sum, h.P99)
		}
	}
}
