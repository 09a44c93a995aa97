package bench

import (
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
)

// Every (schema, mix, distribution) cell of the engine scenario family
// runs end to end — sends commit, scans visit instances, churn keeps
// the private pools stable — at toy sizes, so the experiment path stays
// correct without benchmark-scale run time.
func TestEngineScenarioFamilySmoke(t *testing.T) {
	for _, sc := range EngineScenarioFamily(2) {
		sc.Objects = 64
		sc.OpsPerWorker = 40
		res, err := RunEngineScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if res.Ops != int64(sc.Workers)*int64(sc.OpsPerWorker) {
			t.Errorf("%s: ops = %d, want %d", sc.Name(), res.Ops, sc.Workers*sc.OpsPerWorker)
		}
		if got := res.Sends + res.Scans + res.Churns; got != res.Ops {
			t.Errorf("%s: op kinds sum to %d, want %d", sc.Name(), got, res.Ops)
		}
		switch sc.Workload {
		case EngineSendHeavy:
			if res.Scans != 0 || res.Churns != 0 {
				t.Errorf("%s: send-heavy ran %d scans, %d churns", sc.Name(), res.Scans, res.Churns)
			}
		case EngineScanMix:
			if res.Churns != 0 {
				t.Errorf("%s: scan-mix ran %d churns", sc.Name(), res.Churns)
			}
		case EngineChurn:
			if res.Scans != 0 {
				t.Errorf("%s: churn ran %d scans", sc.Name(), res.Scans)
			}
		case EngineReadMostly:
			if res.Churns != 0 {
				t.Errorf("%s: read-mostly ran %d churns", sc.Name(), res.Churns)
			}
		}
		if res.PerSec <= 0 {
			t.Errorf("%s: throughput %f", sc.Name(), res.PerSec)
		}
	}
}

// Duration-based runs: workers commit until the wall clock expires
// (after an uncounted warmup), op counts are whatever was achieved, and
// the latency histogram only holds the measured phase.
func TestEngineScenarioDurationRun(t *testing.T) {
	sc := DefaultEngineScenario(EngineBanking, EngineReadMostly, DistUniform, 2)
	sc.Objects = 64
	sc.Duration = 80 * time.Millisecond
	sc.Warmup = 20 * time.Millisecond
	res, err := RunEngineScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 || res.Ops != res.Sends+res.Scans+res.Churns {
		t.Errorf("timed run ops = %d (sends %d scans %d churns %d)", res.Ops, res.Sends, res.Scans, res.Churns)
	}
	if res.PerSec <= 0 || res.P50 <= 0 {
		t.Errorf("timed run throughput %f p50 %v", res.PerSec, res.P50)
	}
}

// The ReadRatio knob with snapshot routing: at 100% read sends every
// send transaction is read-only, so with SnapshotViews on, the send
// share of the workload issues zero lock-table requests.
func TestEngineScenarioSnapshotRouting(t *testing.T) {
	base := DefaultEngineScenario(EngineBanking, EngineSendHeavy, DistUniform, 2)
	base.Objects = 64
	base.OpsPerWorker = 100
	base.ReadRatio = 100

	locked := base
	locked.SnapshotViews = false
	lockRes, err := RunEngineScenario(locked)
	if err != nil {
		t.Fatal(err)
	}
	snapRes, err := RunEngineScenario(base)
	if err != nil {
		t.Fatal(err)
	}
	if lockRes.LockRequests == 0 {
		t.Error("locking run issued no lock requests; the control is broken")
	}
	// The only lock traffic left in the snapshot run is the population
	// setup transaction.
	if snapRes.LockRequests >= lockRes.LockRequests/2 {
		t.Errorf("snapshot run issued %d lock requests vs locking %d; reads still on the lock table",
			snapRes.LockRequests, lockRes.LockRequests)
	}
}

// The durable scenario path of the durability experiment: a logged run
// completes, every committed transaction reached the WAL, and the mixed
// churn workload (creates + deletes) survives the logging hooks.
func TestRecoveryEngineScenarioDurable(t *testing.T) {
	for _, wl := range []EngineWorkload{EngineSendHeavy, EngineChurn} {
		sc := DefaultEngineScenario(EngineBanking, wl, DistUniform, 2)
		sc.Objects = 32
		sc.OpsPerWorker = 40
		sc.Durable = true
		sc.Dir = t.TempDir()
		sc.GroupCommitWindow = 50 * time.Microsecond
		res, err := RunEngineScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name(), err)
		}
		if res.Ops != int64(sc.Workers)*int64(sc.OpsPerWorker) {
			t.Errorf("%s: ops = %d", sc.Name(), res.Ops)
		}
	}
}

// A durable scenario on a disk that fills up mid-run must fail cleanly:
// workers stop, RunEngineScenario surfaces a typed ENOSPC fail-stop
// error, and nothing panics or hangs.
func TestEngineScenarioDiskFull(t *testing.T) {
	sc := DefaultEngineScenario(EngineBanking, EngineSendHeavy, DistUniform, 2)
	sc.Objects = 32
	sc.OpsPerWorker = 200
	sc.Durable = true
	sc.Dir = t.TempDir()
	// Past the open/population ops, well inside the 400-commit workload.
	sc.FaultWriteAfter = 40
	if _, err := RunEngineScenario(sc); err == nil {
		t.Fatal("scenario on a full disk reported success")
	} else if !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, wal.ErrDiskFull) {
		t.Fatalf("error is not a typed disk-full fail-stop: %v", err)
	}
}

// The churn mix must leave the shared population intact: deletes only
// ever hit worker-private objects.
func TestEngineChurnPreservesPopulation(t *testing.T) {
	sc := DefaultEngineScenario(EngineBanking, EngineChurn, DistUniform, 2)
	sc.Objects = 32
	sc.OpsPerWorker = 60
	st, err := setupEngineScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.runEngineWorkers(int64(sc.Workers) * int64(sc.OpsPerWorker)); err != nil {
		t.Fatal(err)
	}
	for _, oid := range st.objects {
		if _, ok := st.db.Store.Get(oid); !ok {
			t.Fatalf("shared object %d deleted by churn", oid)
		}
	}
}
