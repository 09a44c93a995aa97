package oodb

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/wal"
)

// The fail-stop golden suites drive the public API onto a hostile disk:
// a reference run over a counting wal.FaultFS fixes the deterministic
// op sequence, then the same workload re-runs with an injected fsync
// error or a disk that fills up mid-session. The contract under test:
//
//   - the first failing commit (and every write after it) reports an
//     error matching IsReadOnly — and IsDiskFull exactly when the
//     cause was ENOSPC;
//   - no commit is ever acknowledged after one fails (fail-stop);
//   - Health() reports the degradation;
//   - reads keep serving the acknowledged prefix, byte-for-byte;
//   - reopening the directory on a healthy disk recovers exactly that
//     prefix and restores write service.

// failStopResult is what one hostile-disk workload observed.
type failStopResult struct {
	snapshot string // dumpAll at the last acknowledged commit
	objects  []OID
	maxOID   OID
	failedAt int   // first failed commit op (-1: none)
	ckptErr  error // mid-run checkpoint failure, when the workload takes one

	// read probes the transactional read path (a read-only method send)
	// on the workload's own schema.
	read func(tx *Txn) error
}

// pickOp returns the index of the middle op of the given kind — in the
// middle of the commit stream, past setup, before close.
func pickOp(t *testing.T, trace []wal.OpKind, kind wal.OpKind) int64 {
	t.Helper()
	var idxs []int64
	for i, k := range trace {
		if k == kind {
			idxs = append(idxs, int64(i))
		}
	}
	if len(idxs) < 8 {
		t.Fatalf("only %d ops of kind %v in reference trace", len(idxs), kind)
	}
	return idxs[len(idxs)/2]
}

// bankingFailStop runs the deterministic banking session, tolerating
// write failures once the disk turns hostile.
func bankingFailStop(t *testing.T, db *Database, enospc bool) failStopResult {
	t.Helper()
	var accounts []OID
	if err := db.Update(func(tx *Txn) error {
		for i := 0; i < 6; i++ {
			cls := "savings"
			if i%2 == 1 {
				cls = "checking"
			}
			oid, err := tx.New(cls, int64(100+i), fmt.Sprintf("owner-%d", i), int64(1000))
			if err != nil {
				return err
			}
			accounts = append(accounts, oid)
		}
		return nil
	}); err != nil {
		t.Fatalf("setup commit: %v", err)
	}
	res := failStopResult{objects: accounts, maxOID: accounts[len(accounts)-1], failedAt: -1}
	res.read = func(tx *Txn) error {
		_, err := tx.Send(accounts[0], "getbalance")
		return err
	}
	res.snapshot = dumpAll(t, db, res.maxOID)
	for op := 0; op < 30; op++ {
		oid := accounts[op%len(accounts)]
		err := db.Update(func(tx *Txn) error {
			switch op % 3 {
			case 0:
				_, err := tx.Send(oid, "deposit", int64(10+op))
				return err
			case 1:
				_, err := tx.Send(oid, "withdraw", int64(op))
				return err
			default:
				_, err := tx.Send(oid, "rename", fmt.Sprintf("holder-%d", op))
				return err
			}
		})
		if err != nil {
			if res.failedAt < 0 {
				res.failedAt = op
			}
			if !IsReadOnly(err) {
				t.Fatalf("op %d: failure not IsReadOnly: %v", op, err)
			}
			if enospc != IsDiskFull(err) {
				t.Fatalf("op %d: IsDiskFull=%v, want %v: %v", op, IsDiskFull(err), enospc, err)
			}
			continue
		}
		if res.failedAt >= 0 {
			t.Fatalf("op %d: commit acknowledged after fail-stop", op)
		}
		res.snapshot = dumpAll(t, db, res.maxOID)
	}
	return res
}

// cadFailStop is the CAD variant: revise+approve transactions with a
// checkpoint mid-run, so the fault can also land inside compaction.
func cadFailStop(t *testing.T, db *Database, enospc bool) failStopResult {
	t.Helper()
	var parts []OID
	if err := db.Update(func(tx *Txn) error {
		for i := 0; i < 5; i++ {
			cls := "part"
			if i%3 == 0 {
				cls = "assembly"
			}
			oid, err := tx.New(cls, int64(i), int64(50+i))
			if err != nil {
				return err
			}
			parts = append(parts, oid)
		}
		return nil
	}); err != nil {
		t.Fatalf("setup commit: %v", err)
	}
	res := failStopResult{objects: parts, maxOID: parts[len(parts)-1], failedAt: -1}
	res.read = func(tx *Txn) error {
		_, err := tx.Send(parts[0], "inspect", int64(3))
		return err
	}
	res.snapshot = dumpAll(t, db, res.maxOID)
	for op := 0; op < 24; op++ {
		if op == 10 {
			res.ckptErr = db.Checkpoint()
		}
		oid := parts[op%len(parts)]
		err := db.Update(func(tx *Txn) error {
			if _, err := tx.Send(oid, "revise", int64(op%5)); err != nil {
				return err
			}
			_, err := tx.Send(oid, "approve")
			return err
		})
		if err != nil {
			if res.failedAt < 0 {
				res.failedAt = op
			}
			if !IsReadOnly(err) {
				t.Fatalf("op %d: failure not IsReadOnly: %v", op, err)
			}
			if enospc != IsDiskFull(err) {
				t.Fatalf("op %d: IsDiskFull=%v, want %v: %v", op, IsDiskFull(err), enospc, err)
			}
			continue
		}
		if res.failedAt >= 0 {
			t.Fatalf("op %d: commit acknowledged after fail-stop", op)
		}
		res.snapshot = dumpAll(t, db, res.maxOID)
	}
	return res
}

func failStopGolden(t *testing.T, src string, workload func(*testing.T, *Database, bool) failStopResult, enospc bool) {
	t.Helper()
	schema, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	// Reference run: same workload, counting FS, no faults. Fixes the
	// deterministic op sequence the fault index is chosen from.
	ref := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})
	refDB, err := OpenWith(schema, Fine, Options{Dir: t.TempDir(), fs: ref})
	if err != nil {
		t.Fatal(err)
	}
	refRes := workload(t, refDB, enospc)
	if refRes.failedAt >= 0 || refRes.ckptErr != nil {
		t.Fatalf("reference run saw failures: commit %d, ckpt %v", refRes.failedAt, refRes.ckptErr)
	}
	if err := refDB.Close(); err != nil {
		t.Fatal(err)
	}

	plan := wal.FaultPlan{Class: wal.FaultErr}
	if enospc {
		// A disk that fills up and stays full: the middle write and every
		// write after it fail with ENOSPC.
		plan = wal.FaultPlan{Class: wal.FaultENOSPC, Persist: true}
		plan.FailAt = pickOp(t, ref.Trace(), wal.KindWrite)
	} else {
		// One fsync fails mid-run; the device then behaves again — but the
		// log must stay latched anyway.
		plan.FailAt = pickOp(t, ref.Trace(), wal.KindSync)
	}

	dir := t.TempDir()
	db, err := OpenWith(schema, Fine, Options{Dir: dir, fs: wal.NewFaultFS(nil, plan)})
	if err != nil {
		t.Fatal(err)
	}
	res := workload(t, db, enospc)
	if res.failedAt < 0 && res.ckptErr == nil {
		t.Fatal("fault never fired")
	}

	if res.failedAt >= 0 {
		h := db.Health()
		if !h.ReadOnly || h.Err == nil {
			t.Fatalf("Health after fail-stop = %+v", h)
		}
		if enospc != h.DiskFull {
			t.Fatalf("Health.DiskFull = %v, want %v (%v)", h.DiskFull, enospc, h.Err)
		}
	}

	// Degraded reads: the transactional read path and the dump must both
	// keep serving exactly the acknowledged prefix.
	if err := db.Update(res.read); err != nil {
		t.Fatalf("degraded transactional read failed: %v", err)
	}
	if got := dumpAll(t, db, res.maxOID); got != res.snapshot {
		t.Fatalf("degraded reads diverge from acknowledged state:\ngot:\n%s\nwant:\n%s", got, res.snapshot)
	}

	db.Close() //nolint:errcheck // a latched log reports its failure here

	// Reopen on a healthy disk: exactly the acknowledged prefix, and
	// write service restored.
	re, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after fail-stop: %v", err)
	}
	defer re.Close()
	if h := re.Health(); h.ReadOnly {
		t.Fatalf("reopened database still degraded: %+v", h)
	}
	if got := dumpAll(t, re, res.maxOID); got != res.snapshot {
		t.Fatalf("reopen diverged from acknowledged prefix:\ngot:\n%s\nwant:\n%s", got, res.snapshot)
	}
	if err := re.Update(res.read); err != nil {
		t.Fatal(err)
	}
}

func TestFailStopGoldenBankingFsyncError(t *testing.T) {
	failStopGolden(t, bankingSrc, bankingFailStop, false)
}

func TestFailStopGoldenBankingENOSPC(t *testing.T) {
	failStopGolden(t, bankingSrc, bankingFailStop, true)
}

func TestFailStopGoldenCADFsyncError(t *testing.T) {
	failStopGolden(t, cadSrc, cadFailStop, false)
}

func TestFailStopGoldenCADENOSPC(t *testing.T) {
	failStopGolden(t, cadSrc, cadFailStop, true)
}

// commitModes are the three ways a caller commits an Update-shaped
// transaction: blocking, pipelined and then waited on, and blocking
// under a context that carries a deadline.
var commitModes = []struct {
	name   string
	commit func(db *Database, fn func(*Txn) error) error
}{
	{"update", func(db *Database, fn func(*Txn) error) error { return db.Update(fn) }},
	{"async", func(db *Database, fn func(*Txn) error) error {
		fut, err := db.UpdateAsync(fn)
		if err != nil {
			return err
		}
		return fut.Wait()
	}},
	{"ctx", func(db *Database, fn func(*Txn) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		return db.UpdateCtx(ctx, fn)
	}},
}

// TestFailStopViewReadsAcknowledgedPrefix: after a sync fault, under
// every commit mode, no reader sees a write the log did not
// acknowledge. A View reads the acknowledged balance; a locking Update
// that only reads either reads it too or fails as read-only.
func TestFailStopViewReadsAcknowledgedPrefix(t *testing.T) {
	schema, err := Compile(bankingSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			// deposits runs one account through a series of deposit
			// commits and returns the balance of the acknowledged ones,
			// stopping at the first failure.
			deposits := func(db *Database) (acct OID, acked int64, failed bool) {
				acked = 1000
				if err := db.Update(func(tx *Txn) error {
					var err error
					acct, err = tx.New("savings", int64(1), "owner", acked)
					return err
				}); err != nil {
					t.Fatalf("setup commit: %v", err)
				}
				for op := int64(1); op <= 20; op++ {
					err := mode.commit(db, func(tx *Txn) error {
						_, err := tx.Send(acct, "deposit", op)
						return err
					})
					if err != nil {
						if !IsReadOnly(err) {
							t.Fatalf("deposit %d: failure not IsReadOnly: %v", op, err)
						}
						return acct, acked, true
					}
					acked += op
				}
				return acct, acked, false
			}

			ref := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})
			refDB, err := OpenWith(schema, Fine, Options{Dir: t.TempDir(), fs: ref})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, failed := deposits(refDB); failed {
				t.Fatal("reference run saw a failure")
			}
			if err := refDB.Close(); err != nil {
				t.Fatal(err)
			}

			plan := wal.FaultPlan{Class: wal.FaultErr, FailAt: pickOp(t, ref.Trace(), wal.KindSync)}
			db, err := OpenWith(schema, Fine, Options{Dir: t.TempDir(), fs: wal.NewFaultFS(nil, plan)})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close() //nolint:errcheck // a latched log reports its failure here
			acct, acked, failed := deposits(db)
			if !failed {
				t.Fatal("fault never fired")
			}
			getbalance := func(tx *Txn) (any, error) { return tx.Send(acct, "getbalance") }
			if err := db.View(func(tx *Txn) error {
				got, err := getbalance(tx)
				if err == nil && got != acked {
					t.Errorf("View after fail-stop reads balance %v, want the acknowledged %d", got, acked)
				}
				return err
			}); err != nil {
				t.Fatalf("View after fail-stop: %v", err)
			}
			if err := db.Update(func(tx *Txn) error {
				got, err := getbalance(tx)
				if err == nil && got != acked {
					t.Errorf("locking read after fail-stop reads balance %v, want the acknowledged %d", got, acked)
				}
				return err
			}); err != nil && !IsReadOnly(err) {
				t.Fatalf("locking read after fail-stop: %v, want success or IsReadOnly", err)
			}
		})
	}
}

// TestFailStopUpdateThenViewReadsOwnWrite: on a healthy durable
// database, a View begun after a commit returned (after Wait, for a
// pipelined one) reads the commit's write, under every commit mode.
func TestFailStopUpdateThenViewReadsOwnWrite(t *testing.T) {
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			db, acct := ctxAccountDB(t, Options{Dir: t.TempDir()})
			defer db.Close()
			for n := int64(1); n <= 20; n++ {
				if err := mode.commit(db, func(tx *Txn) error {
					_, err := tx.Send(acct, "deposit", n)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				want := 100 + n*(n+1)/2
				if err := db.View(func(tx *Txn) error {
					got, err := tx.Send(acct, "getbalance")
					if err == nil && got != want {
						t.Errorf("View after deposit %d reads %v, want %d", n, got, want)
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
