package oodb

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The public observability surface: Stats facade completeness,
// Prometheus/JSON rendering, the slow-transaction recorder, and the
// debug handler CI smokes.

// obsDB opens a durable Fine database and commits enough traffic to
// move every layer's counters: sends, a snapshot read, a checkpoint.
func obsDB(t *testing.T) *Database {
	t.Helper()
	s := compileFig1(t)
	db, err := OpenWith(s, Fine, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var oid OID
	err = db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("c2", int64(1), false)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.Update(func(tx *Txn) error {
			_, err := tx.Send(oid, "m1", int64(i))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.View(func(tx *Txn) error {
		_, err := tx.Send(oid, "m3")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestStatsFacadeFields pins the satellite-2 additions: the lock-manager
// fields Stats() used to drop and the WAL counters.
func TestStatsFacadeFields(t *testing.T) {
	db := obsDB(t)
	// Two sends to one instance in one transaction: the second top-level
	// lock request is a reentrant grant.
	if err := db.Update(func(tx *Txn) error {
		oid, err := tx.New("c2", int64(5), false)
		if err != nil {
			return err
		}
		if _, err := tx.Send(oid, "m4", int64(1), int64(2)); err != nil {
			return err
		}
		_, err = tx.Send(oid, "m4", int64(3), int64(4))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.ImmediateGrants == 0 {
		t.Error("ImmediateGrants not surfaced")
	}
	if st.Releases == 0 {
		t.Error("Releases not surfaced")
	}
	if st.Reentrant == 0 {
		t.Error("Reentrant not surfaced (m1 re-locks the instance for its nested sends)")
	}
	if st.WALRecords == 0 || st.WALBatches == 0 || st.WALFsyncs == 0 || st.WALBytes == 0 {
		t.Errorf("WAL counters not surfaced: %+v", st)
	}
	if st.WALCheckpoints == 0 {
		t.Error("WALCheckpoints not surfaced")
	}

	// Volatile database: WAL fields stay zero rather than panicking.
	vdb, err := Open(compileFig1(t), Fine)
	if err != nil {
		t.Fatal(err)
	}
	if st := vdb.Stats(); st.WALRecords != 0 || st.WALFsyncs != 0 {
		t.Errorf("volatile WAL counters = %+v", st)
	}
}

// TestWriteMetricsExposition is the acceptance check on the rendered
// text: per-method latency quantiles, WAL fsync/batch histograms, and
// MVCC version/watermark gauges, all in valid Prometheus form.
func TestWriteMetricsExposition(t *testing.T) {
	db := obsDB(t)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		// Per-method latency summary: quantiles + _sum/_count.
		`favcc_send_latency_seconds{class="c2",method="m1",quantile="0.5"}`,
		`favcc_send_latency_seconds{class="c2",method="m1",quantile="0.99"}`,
		`favcc_send_latency_seconds_count{class="c2",method="m1"}`,
		`favcc_send_latency_seconds_sum{class="c2",method="m1"}`,
		// The snapshot-path counter saw the View send.
		`favcc_snapshot_sends_total{class="c2",method="m3"}`,
		// WAL group-commit histograms.
		"# TYPE favcc_wal_fsync_seconds summary",
		`favcc_wal_fsync_seconds{quantile="0.5"}`,
		`favcc_wal_batch_records_count`,
		// MVCC gauges.
		"favcc_mvcc_versions_published_total",
		"favcc_mvcc_watermark_lag_epochs",
		"favcc_mvcc_active_snapshots",
		// Lock and txn counters.
		"favcc_lock_wait_seconds_count",
		`favcc_txns_total{outcome="committed"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	// Every HELP line pairs with a TYPE line; counters end in _total or
	// are summaries — structural sanity beyond substring checks lives in
	// obs's round-trip parser test.
	if c := strings.Count(text, "# HELP "); c == 0 || c != strings.Count(text, "# TYPE ") {
		t.Errorf("HELP/TYPE pairing broken: %d HELP lines", c)
	}

	// The m1 send count is exact: three committed updates.
	if !strings.Contains(text, `favcc_send_latency_seconds_count{class="c2",method="m1"} 3`) {
		t.Errorf("m1 send count line missing or wrong:\n%s", grepLines(text, "m1\"} "))
	}
}

func grepLines(text, needle string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsJSON checks the expvar-style rendering parses as one flat
// JSON object with the expected key shapes.
func TestMetricsJSON(t *testing.T) {
	db := obsDB(t)
	var buf bytes.Buffer
	if err := db.MetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	h, ok := m[`favcc_send_latency_seconds{class="c2",method="m1"}`].(map[string]any)
	if !ok {
		t.Fatalf("m1 histogram object missing; keys: %d", len(m))
	}
	if h["count"].(float64) != 3 {
		t.Errorf("m1 count = %v", h["count"])
	}
	if _, ok := m["favcc_txns_total{outcome=\"committed\"}"]; !ok {
		t.Error("txns counter missing from JSON")
	}
}

// TestSlowTxns exercises the recorder end to end through the facade.
func TestSlowTxns(t *testing.T) {
	s := compileFig1(t)
	db, err := Open(s, Fine)
	if err != nil {
		t.Fatal(err)
	}
	db.SetSlowTxnThreshold(time.Nanosecond)
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("c2", int64(1), false)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.Send(oid, "m1", int64(7))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowTxns()
	if len(slow) < 2 {
		t.Fatalf("captured %d slow txns, want ≥ 2", len(slow))
	}
	st := slow[0] // newest first: the m1 update
	if st.Elapsed <= 0 || len(st.Events) == 0 {
		t.Errorf("empty capture: %+v", st)
	}
	if st.Events[0].Kind.String() != "begin" {
		t.Errorf("first event = %v", st.Events[0])
	}
	db.SetSlowTxnThreshold(time.Hour)
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.Send(oid, "m1", int64(8))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.SlowTxns(); len(got) != len(slow) {
		t.Errorf("hour threshold still captured: %d -> %d", len(slow), len(got))
	}
}

// TestDebugHandler is the CI smoke: every endpoint of the mounted
// debug surface answers 200 with plausible content.
func TestDebugHandler(t *testing.T) {
	db := obsDB(t)
	db.SetSlowTxnThreshold(time.Nanosecond)
	if err := db.Update(func(tx *Txn) error {
		_, err := tx.New("c1", int64(1), false)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	h := db.DebugHandler()
	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rr.Code)
		}
		return rr
	}
	if body := get("/metrics").Body.String(); !strings.Contains(body, "favcc_send_latency_seconds") {
		t.Error("/metrics missing send-latency family")
	}
	var m map[string]any
	if err := json.Unmarshal(get("/vars").Body.Bytes(), &m); err != nil {
		t.Errorf("/vars is not JSON: %v", err)
	}
	if body := get("/slowtxns").Body.String(); !strings.Contains(body, "txn ") {
		t.Errorf("/slowtxns has no captures:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline").Body.String(); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}
