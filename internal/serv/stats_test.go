package serv_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serv"
	"repro/oodb"
	"repro/oodb/client"
)

// metricsJSON reads a database's registry as a flat map of scalar
// series; histogram objects are skipped.
func metricsJSON(t *testing.T, db *oodb.Database) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := db.MetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	out := make(map[string]int64, len(raw))
	for k, v := range raw {
		var n int64
		if json.Unmarshal(v, &n) == nil {
			out[k] = n
		}
	}
	return out
}

// TestStatsAreRegistryViews: every field of oodb.Stats and serv.Stats is
// a series of the database's registry, and reads the same value. Mixed
// traffic over the wire and through the embedded API moves every layer
// first: updates, a view, a scan, a create and a delete, a checkpoint.
func TestStatsAreRegistryViews(t *testing.T) {
	sock, db, srv := startServer(t, "banking", oodb.Options{Dir: t.TempDir()})
	defer db.Close()
	defer srv.Close()
	c := dial(t, sock)
	ctx := context.Background()

	tx := client.NewTx()
	acct := tx.New("savings")
	tx.SendRef(acct, "deposit", int64(40))
	tx.SendRef(acct, "accrue")
	res, err := c.Do(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := res.OID(acct.Index())
	if err != nil {
		t.Fatal(err)
	}
	view := client.NewView()
	view.Send(oid, "getbalance")
	view.Scan("account", "getbalance", true)
	if _, err := c.Do(ctx, view); err != nil {
		t.Fatal(err)
	}
	created := client.NewTx()
	gone := created.New("checking")
	cres, err := c.Do(ctx, created)
	if err != nil {
		t.Fatal(err)
	}
	goneOID, _ := cres.OID(gone.Index())
	del := client.NewTx()
	del.Delete(goneOID)
	if _, err := c.Do(ctx, del); err != nil {
		t.Fatal(err)
	}
	bad := client.NewView()
	bad.Send(oid, "deposit", int64(1)) // a write in a view: answered non-OK
	if _, err := c.Do(ctx, bad); err == nil {
		t.Fatal("write inside a view succeeded")
	}
	if err := db.Update(func(tx *oodb.Txn) error {
		if _, err := tx.Send(oid, "rename", "ada"); err != nil {
			return err
		}
		_, err := tx.Send(oid, "rename", "grace") // a reentrant lock request
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *oodb.Txn) error {
		_, err := tx.ScanSend("savings", "getbalance", false)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	series := map[string]string{
		"LockRequests":        "favcc_lock_requests_total",
		"Blocks":              "favcc_lock_blocks_total",
		"Deadlocks":           "favcc_lock_deadlocks_total",
		"EscalationDeadlocks": "favcc_lock_escalation_deadlocks_total",
		"Upgrades":            "favcc_lock_upgrades_total",
		"Timeouts":            "favcc_lock_timeouts_total",
		"ImmediateGrants":     "favcc_lock_immediate_grants_total",
		"Reentrant":           "favcc_lock_reentrant_total",
		"Releases":            "favcc_lock_releases_total",
		"Committed":           `favcc_txns_total{outcome="committed"}`,
		"Aborted":             `favcc_txns_total{outcome="aborted"}`,
		"Retries":             "favcc_txn_retries_total",
		"Snapshots":           "favcc_snapshot_txns_total",
		"TopSends":            "favcc_top_sends_total",
		"NestedSends":         "favcc_nested_sends_total",
		"WALRecords":          "favcc_wal_records_total",
		"WALBatches":          "favcc_wal_batches_total",
		"WALFsyncs":           "favcc_wal_fsyncs_total",
		"WALBytes":            "favcc_wal_bytes_total",
		"WALCheckpoints":      "favcc_wal_checkpoints_total",
	}
	ln := obs.Labels("listener", srv.Addr().String())
	servSeries := map[string]string{
		"SessionsTotal": "favserv_sessions_total{" + ln + "}",
		"ConnsActive":   "favserv_conns_active{" + ln + "}",
		"Inflight":      "favserv_inflight_requests{" + ln + "}",
		"Requests":      "favserv_requests_total{" + ln + "}",
		"Txns":          "favserv_txns_total{" + ln + "}",
		"Views":         "favserv_views_total{" + ln + "}",
		"Errors":        "favserv_request_errors_total{" + ln + "}",
	}
	// The session and the log writer are idle, but read the registry
	// between two equal Stats readings all the same.
	var st oodb.Stats
	var ss serv.Stats
	var reg map[string]int64
	for try := 0; ; try++ {
		st, ss = db.Stats(), srv.Stats()
		reg = metricsJSON(t, db)
		if db.Stats() == st && srv.Stats() == ss {
			break
		}
		if try == 100 {
			t.Fatal("counters still moving on an idle database")
		}
	}
	check := func(v reflect.Value, names map[string]string) {
		t.Helper()
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i).Name
			key, ok := names[field]
			if !ok {
				t.Errorf("%s.%s has no series", v.Type(), field)
				continue
			}
			got, ok := reg[key]
			if !ok {
				t.Errorf("%s.%s: series %s not exported", v.Type(), field, key)
				continue
			}
			if want := v.Field(i).Int(); got != want {
				t.Errorf("%s.%s = %d, series %s = %d", v.Type(), field, want, key, got)
			}
		}
	}
	check(reflect.ValueOf(st), series)
	check(reflect.ValueOf(ss), servSeries)
	if st.Releases == 0 || st.ImmediateGrants == 0 || st.Reentrant == 0 || st.NestedSends == 0 ||
		st.WALCheckpoints == 0 || ss.Txns == 0 || ss.Views == 0 || ss.Errors == 0 {
		t.Errorf("traffic left counters at zero: %+v %+v", st, ss)
	}
}

// TestServersOnOneDatabaseExportDistinctSeries: two servers on one
// database each export their own favserv series, told apart by the
// listener label, and no sample appears twice (Prometheus rejects a
// scrape with duplicate samples, and the JSON page would keep only one
// of two equal keys).
func TestServersOnOneDatabaseExportDistinctSeries(t *testing.T) {
	sock1, db, srv1 := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv1.Close()
	sock2 := filepath.Join(t.TempDir(), "second.sock")
	srv2, err := serv.Listen(db, "unix", sock2, serv.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ctx := context.Background()
	for i, sock := range []string{sock1, sock2, sock2} {
		if err := dial(t, sock).Ping(ctx); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}

	var buf bytes.Buffer
	if err := db.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		if _, dup := samples[key]; dup {
			t.Errorf("sample %s exported twice", key)
		}
		samples[key] = val
	}
	for sock, want := range map[string]string{sock1: "1", sock2: "2"} {
		key := "favserv_sessions_total{" + obs.Labels("listener", sock) + "}"
		if got := samples[key]; got != want {
			t.Errorf("%s = %q, want %s", key, got, want)
		}
	}
}
