package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The snapshot read path (ISSUE 8 tentpole): transactions whose methods
// are statically read-only per their transitive access vectors run
// lock-free against committed multiversion state. These tests pin the
// three contracts that make that safe: equivalence (snapshot reads
// return byte-for-byte what locking reads return on quiescent data),
// isolation (a snapshot is frozen at its begin epoch regardless of
// concurrent commits), and containment (no lock-table resource is ever
// touched, and no mutation can slip through with the hooks skipped).

// snapLedgerSchema exercises reads across inheritance, arithmetic over
// fields, string concatenation and nested self-sends — all write-free —
// next to writing methods that must stay off the snapshot path.
const snapLedgerSchema = `
class account is
    instance variables are
        owner : string
        balance : integer
        bonus : integer
    method deposit(n) is
        balance := balance + n
    end
    method getbalance is
        return balance
    end
    method worth is
        return balance + bonus
    end
    method describe is
        return owner + "/"
    end
    method summary is
        var w := send worth to self
        return w * 2
    end
end

class savings inherits account is
    instance variables are
        rate : integer
    method worth is redefined as
        return balance + bonus + rate
    end
end
`

func newSnapLedgerDB(t *testing.T, s Strategy) *DB {
	t.Helper()
	c, err := core.CompileSource(snapLedgerSchema)
	if err != nil {
		t.Fatal(err)
	}
	return Open(c, s)
}

func seedSnapLedger(t *testing.T, db *DB) []storage.OID {
	t.Helper()
	var oids []storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 4; i++ {
			in, err := db.NewInstance(tx, "account",
				storage.StrV(fmt.Sprintf("acct%d", i)), storage.IntV(int64(100*i)), storage.IntV(7))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		for i := 0; i < 2; i++ {
			in, err := db.NewInstance(tx, "savings",
				storage.StrV(fmt.Sprintf("sav%d", i)), storage.IntV(int64(1000*(i+1))), storage.IntV(3), storage.IntV(int64(i+1)))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return oids
}

// readOnlyTranscript runs the fixed read-only script through send/scan
// callbacks and renders every outcome, so the locking and snapshot
// paths produce directly comparable bytes.
func readOnlyTranscript(oids []storage.OID,
	send func(oid storage.OID, method string, args ...Value) (Value, error),
	scan func(root, method string, hier bool) (int, error)) string {
	var b strings.Builder
	out := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	rec := func(tag string, v Value, err error) {
		if err != nil {
			out("%s -> ERR %s", tag, err)
		} else {
			out("%s -> %s", tag, v)
		}
	}
	for i, oid := range oids {
		v, err := send(oid, "getbalance")
		rec(fmt.Sprintf("obj%d getbalance", i), v, err)
		v, err = send(oid, "worth")
		rec(fmt.Sprintf("obj%d worth", i), v, err)
		v, err = send(oid, "describe")
		rec(fmt.Sprintf("obj%d describe", i), v, err)
		v, err = send(oid, "summary")
		rec(fmt.Sprintf("obj%d summary", i), v, err)
	}
	for _, hier := range []bool{true, false} {
		n, err := scan("account", "getbalance", hier)
		if err != nil {
			out("scan account.getbalance hier=%t -> ERR %s", hier, err)
		} else {
			out("scan account.getbalance hier=%t -> %d visited", hier, n)
		}
	}
	return b.String()
}

// TestSnapshotGoldenDifferential is the equivalence proof: on quiescent
// data, the same read-only script replayed through the locking path and
// through the snapshot path yields byte-for-byte identical transcripts,
// under every strategy.
func TestSnapshotGoldenDifferential(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db := newSnapLedgerDB(t, s)
			oids := seedSnapLedger(t, db)

			locking := readOnlyTranscript(oids,
				func(oid storage.OID, method string, args ...Value) (Value, error) {
					var out Value
					err := db.RunWithRetry(func(tx *txn.Txn) error {
						v, err := db.Send(tx, oid, method, args...)
						out = v
						return err
					})
					return out, err
				},
				func(root, method string, hier bool) (int, error) {
					var n int
					err := db.RunWithRetry(func(tx *txn.Txn) error {
						var err error
						n, err = db.DomainScan(tx, root, method, hier, nil)
						return err
					})
					return n, err
				})

			snapshot := readOnlyTranscript(oids,
				func(oid storage.OID, method string, args ...Value) (Value, error) {
					var out Value
					err := db.RunReadOnly(func(tx *txn.Txn) error {
						v, err := db.Send(tx, oid, method, args...)
						out = v
						return err
					})
					return out, err
				},
				func(root, method string, hier bool) (int, error) {
					var n int
					err := db.RunReadOnly(func(tx *txn.Txn) error {
						var err error
						n, err = db.DomainScan(tx, root, method, hier, nil)
						return err
					})
					return n, err
				})

			if locking != snapshot {
				t.Errorf("snapshot transcript diverges from locking transcript\n--- locking ---\n%s--- snapshot ---\n%s", locking, snapshot)
			}
		})
	}
}

// TestSnapshotZeroLockTable is the containment acceptance: a snapshot
// transaction acquires zero lock-table resources — not one Acquire
// call reaches the lock manager — while doing real sends and scans.
func TestSnapshotZeroLockTable(t *testing.T) {
	db := newSnapLedgerDB(t, FineCC{})
	oids := seedSnapLedger(t, db)

	before := db.Locks().Snapshot()
	txnsBefore := db.Txns.Snapshot()
	err := db.RunReadOnly(func(tx *txn.Txn) error {
		if !tx.IsSnapshot() {
			t.Error("RunReadOnly must hand out a snapshot transaction")
		}
		if held := db.Locks().LocksHeld(tx.ID); held != 0 {
			t.Errorf("snapshot txn holds %d locks at begin", held)
		}
		for _, oid := range oids {
			if _, err := db.Send(tx, oid, "worth"); err != nil {
				return err
			}
		}
		if _, err := db.DomainScan(tx, "account", "getbalance", false, nil); err != nil {
			return err
		}
		if held := db.Locks().LocksHeld(tx.ID); held != 0 {
			t.Errorf("snapshot txn holds %d locks after reads", held)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after := db.Locks().Snapshot()
	if after.Requests != before.Requests {
		t.Errorf("snapshot transaction issued %d lock requests, want 0", after.Requests-before.Requests)
	}
	if got := db.Txns.Snapshot().Snapshots - txnsBefore.Snapshots; got != 1 {
		t.Errorf("snapshot counter advanced by %d, want 1", got)
	}
}

// TestSnapshotWriteRejected: every mutation route out of a snapshot
// transaction fails with txn.ErrSnapshotWrite — the static gate for
// methods whose TAV writes, the Writable backstop for creation and
// deletion — and the store is untouched.
func TestSnapshotWriteRejected(t *testing.T) {
	db := newSnapLedgerDB(t, FineCC{})
	oids := seedSnapLedger(t, db)
	in, _ := db.Store.Get(oids[0])
	before := in.Get(1)

	err := db.RunReadOnly(func(tx *txn.Txn) error {
		if _, err := db.Send(tx, oids[0], "deposit", storage.IntV(5)); !errors.Is(err, txn.ErrSnapshotWrite) {
			t.Errorf("deposit on snapshot txn: %v, want ErrSnapshotWrite", err)
		}
		if _, err := db.NewInstance(tx, "account", storage.StrV("x"), storage.IntV(0), storage.IntV(0)); !errors.Is(err, txn.ErrSnapshotWrite) {
			t.Errorf("create on snapshot txn: %v, want ErrSnapshotWrite", err)
		}
		if err := db.DeleteInstance(tx, oids[0]); !errors.Is(err, txn.ErrSnapshotWrite) {
			t.Errorf("delete on snapshot txn: %v, want ErrSnapshotWrite", err)
		}
		if _, err := db.DomainScan(tx, "account", "deposit", false, nil, storage.IntV(1)); !errors.Is(err, txn.ErrSnapshotWrite) {
			t.Errorf("writing scan on snapshot txn: %v, want ErrSnapshotWrite", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Get(1); got != before {
		t.Errorf("balance moved across rejected writes: %v -> %v", before, got)
	}
}

// TestSnapshotRemoteWriteRejected: the Figure 1 shape — a read-only
// method (m3: TAV reads f2, f3) that remote-sends a writing method (m
// on c3 writes g1). The remote send re-enters the top-send gate, so the
// write is rejected there; with f2 false the same method is a pure read
// and succeeds.
func TestSnapshotRemoteWriteRejected(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	hot, _ := seedC2(t, db, true)   // f2 = true: m3 reaches out to c3.m
	cold, _ := seedC2(t, db, false) // f2 = false: m3 reads and stops

	err := db.RunReadOnly(func(tx *txn.Txn) error {
		if _, err := db.Send(tx, hot, "m3"); !errors.Is(err, txn.ErrSnapshotWrite) {
			t.Errorf("m3 with writing remote send: %v, want ErrSnapshotWrite", err)
		}
		if _, err := db.Send(tx, cold, "m3"); err != nil {
			t.Errorf("read-only m3: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotClassification pins the snapRead table to the paper's
// worked TAVs: exactly the write-free vectors of section 4.3 admit the
// snapshot path.
func TestSnapshotClassification(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	want := map[string]map[string]bool{
		"c1": {"m1": false, "m2": false, "m3": true},
		"c2": {"m1": false, "m2": false, "m3": true, "m4": false},
		"c3": {"m": false},
	}
	for clsName, methods := range want {
		cid, ok := db.ClassID(clsName)
		if !ok {
			t.Fatalf("class %s not interned", clsName)
		}
		for m, safe := range methods {
			mid, ok := db.MethodID(m)
			if !ok {
				t.Fatalf("method %s not interned", m)
			}
			if got := db.SnapshotSafe(cid, mid); got != safe {
				t.Errorf("SnapshotSafe(%s.%s) = %t, want %t", clsName, m, got, safe)
			}
		}
	}
}

// TestSnapshotFrozenAtBeginEpoch: a snapshot ignores every commit after
// its begin — updates, new objects — while a later snapshot sees them.
func TestSnapshotFrozenAtBeginEpoch(t *testing.T) {
	db := newSnapLedgerDB(t, FineCC{})
	oids := seedSnapLedger(t, db)

	old := beginSnapshot(t, db)
	mid, _ := db.MethodID("getbalance")
	cid, _ := db.ClassID("account")
	v0, err := db.SendID(old, oids[0], mid)
	if err != nil {
		t.Fatal(err)
	}
	n0, err := db.DomainScanID(old, cid, mid, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Commit a deposit and a brand-new account.
	var newOID storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		if _, err := db.Send(tx, oids[0], "deposit", storage.IntV(500)); err != nil {
			return err
		}
		in, err := db.NewInstance(tx, "account", storage.StrV("late"), storage.IntV(9), storage.IntV(9))
		newOID = in.OID
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still sees the pre-commit world.
	if v, err := db.SendID(old, oids[0], mid); err != nil || v != v0 {
		t.Errorf("frozen read moved: %v (err %v), want %v", v, err, v0)
	}
	if n, err := db.DomainScanID(old, cid, mid, false, nil); err != nil || n != n0 {
		t.Errorf("frozen scan visited %d (err %v), want %d", n, err, n0)
	}
	if _, err := db.SendID(old, newOID, mid); err == nil {
		t.Error("object created after snapshot begin must be invisible")
	}

	// A fresh snapshot sees both commits.
	fresh := beginSnapshot(t, db)
	if v, err := db.SendID(fresh, oids[0], mid); err != nil || v.I != v0.I+500 {
		t.Errorf("fresh snapshot reads %v (err %v), want %d", v, err, v0.I+500)
	}
	if n, err := db.DomainScanID(fresh, cid, mid, false, nil); err != nil || n != n0+1 {
		t.Errorf("fresh snapshot visited %d (err %v), want %d", n, err, n0+1)
	}
	if fresh.SnapshotEpoch() <= old.SnapshotEpoch() {
		t.Errorf("epochs not monotone: old %d, fresh %d", old.SnapshotEpoch(), fresh.SnapshotEpoch())
	}
}

// TestSnapshotEscrowNoDirtyRead: under FineCC's declared deposit/deposit
// commutativity two uncommitted writers share one balance cell, so the
// live cell can hold a delta nobody has committed. A snapshot reads
// exactly the committed deposits — whether the open transaction later
// aborts or commits after the snapshot began.
func TestSnapshotEscrowNoDirtyRead(t *testing.T) {
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	c, err := core.CompileSource(escrowAccountSrc, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	for _, t1Commits := range []bool{false, true} {
		db := Open(c, FineCC{})
		const initial, d1, d2 = 100, 3, 5
		var oid storage.OID
		if err := db.RunWithRetry(func(tx *txn.Txn) error {
			in, err := db.NewInstance(tx, "account", storage.IntV(initial))
			oid = in.OID
			return err
		}); err != nil {
			t.Fatal(err)
		}
		snapBalance := func(s *txn.Txn) int64 {
			t.Helper()
			v, err := db.Send(s, oid, "getbalance")
			if err != nil {
				t.Fatal(err)
			}
			return v.I
		}

		t1 := db.Begin() // deposits and stays open
		if _, err := db.Send(t1, oid, "deposit", storage.IntV(d1)); err != nil {
			t.Fatal(err)
		}
		if err := db.RunWithRetry(func(tx *txn.Txn) error { // T2 deposits and commits
			_, err := db.Send(tx, oid, "deposit", storage.IntV(d2))
			return err
		}); err != nil {
			t.Fatal(err)
		}
		during := db.Txns.BeginSnapshot()
		if got := snapBalance(during); got != initial+d2 {
			t.Errorf("T1 open: snapshot reads %d, want %d (initial + T2 only)", got, initial+d2)
		}
		want := int64(initial + d2)
		if t1Commits {
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			want += d1
		} else {
			t1.Abort()
		}
		if got := snapBalance(during); got != initial+d2 {
			t.Errorf("T1 finished (commit=%t): the earlier snapshot now reads %d, want %d", t1Commits, got, initial+d2)
		}
		endSnapshot(db, during)
		after := db.Txns.BeginSnapshot()
		if got := snapBalance(after); got != want {
			t.Errorf("T1 finished (commit=%t): a later snapshot reads %d, want %d", t1Commits, got, want)
		}
		endSnapshot(db, after)
	}
}

// pairSchema holds a two-field invariant (a+b constant under shift) for
// the consistency tortures. seta/setb write one field each (disjoint
// under field locking), bump adds to c, which the escrow variant of the
// torture declares self-commuting.
const pairSchema = `
class pair is
    instance variables are
        a : integer
        b : integer
        c : integer
    method shift(n) is
        a := a + n
        b := b - n
    end
    method seta(n) is
        a := n
    end
    method setb(n) is
        b := n
    end
    method bump(n) is
        c := c + n
    end
    method total is
        return a + b
    end
    method geta is
        return a
    end
    method getb is
        return b
    end
    method getc is
        return c
    end
end
`

// TestTortureSnapshotConsistency hammers one instance with committing
// shift writers (which preserve a+b) while snapshot readers
// continuously assert the invariant through total — a reader that ever
// observes a half-applied or cross-version mix of a and b fails. This
// is the snapshot-vs-locking differential under live concurrency:
// locking readers run alongside as the control group. One more writer
// shifts, deletes the pair and aborts, over and over: no reader of
// either kind may ever miss the instance.
func TestTortureSnapshotConsistency(t *testing.T) {
	const sum = 1000
	c, err := core.CompileSource(pairSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{FineCC{}, RWCC{}} {
		t.Run(s.Name(), func(t *testing.T) {
			db := Open(c, s)
			var oid storage.OID
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				in, err := db.NewInstance(tx, "pair", storage.IntV(sum-300), storage.IntV(300))
				oid = in.OID
				return err
			}); err != nil {
				t.Fatal(err)
			}
			shift, _ := db.MethodID("shift")
			total, _ := db.MethodID("total")

			const writers, readers, rounds = 4, 4, 300
			var wg sync.WaitGroup
			var stop sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					arg := []Value{storage.IntV(int64(w%3 - 1))}
					for i := 0; i < rounds; i++ {
						if err := db.RunWithRetry(func(tx *txn.Txn) error {
							_, err := db.SendID(tx, oid, shift, arg...)
							return err
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			errAbort := errors.New("abort this attempt")
			wg.Add(1)
			go func() { // the aborting deleter
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					err := db.RunWithRetry(func(tx *txn.Txn) error {
						if _, err := db.SendID(tx, oid, shift, storage.IntV(7)); err != nil {
							return err
						}
						if err := db.DeleteInstance(tx, oid); err != nil {
							return err
						}
						return errAbort
					})
					if !errors.Is(err, errAbort) {
						t.Error(err)
						return
					}
				}
			}()
			for r := 0; r < readers; r++ {
				stop.Add(2)
				go func() { // snapshot readers
					defer stop.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						err := db.RunReadOnly(func(tx *txn.Txn) error {
							v, err := db.SendID(tx, oid, total)
							if err != nil {
								return err
							}
							if v.I != sum {
								t.Errorf("snapshot reader saw total %d, want %d", v.I, sum)
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}()
				go func() { // locking readers: the control group
					defer stop.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						err := db.RunWithRetry(func(tx *txn.Txn) error {
							v, err := db.SendID(tx, oid, total)
							if err != nil {
								return err
							}
							if v.I != sum {
								t.Errorf("locking reader saw total %d, want %d", v.I, sum)
							}
							return nil
						})
						if err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()
			close(done)
			stop.Wait()

			// Quiesced: both paths agree on the final state.
			var lockV, snapV Value
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				v, err := db.SendID(tx, oid, total)
				lockV = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := db.RunReadOnly(func(tx *txn.Txn) error {
				v, err := db.SendID(tx, oid, total)
				snapV = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if lockV != snapV || lockV.I != sum {
				t.Errorf("final state: locking %v, snapshot %v, want %d", lockV, snapV, sum)
			}
		})
	}

	// Two protocols grant concurrent uncommitted writers of ONE instance:
	// FieldCC and FineCC to writers of disjoint fields (neither latches
	// them), FineCC also to declared-commuting writers of one field. Their
	// records interleave on one chain and commit (or abort) in any order;
	// a snapshot must read none of it early, nothing of an aborted writer
	// ever, and the same value twice.
	ov := core.NewOverrides()
	ov.Declare("pair", "bump", "bump")
	escrow, err := core.CompileSource(pairSchema, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		c       *core.Compiled
		s       Strategy
		writers []string // one writer goroutine per method
		reads   []string // what the readers watch
	}{
		{"FieldCC-disjoint-fields", c, FieldCC{}, []string{"seta", "setb"}, []string{"geta", "getb"}},
		{"FineCC-disjoint-fields", c, FineCC{}, []string{"seta", "setb"}, []string{"geta", "getb"}},
		{"FineCC-escrow-aborts", escrow, FineCC{}, []string{"bump", "bump", "bump"}, []string{"getc"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := Open(tc.c, tc.s)
			var oid storage.OID
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				in, err := db.NewInstance(tx, "pair", storage.IntV(0), storage.IntV(0), storage.IntV(0))
				oid = in.OID
				return err
			}); err != nil {
				t.Fatal(err)
			}
			const readers, rounds, poison = 4, 300, -1 << 40
			errAbort := errors.New("abort this attempt")
			var wg, stop sync.WaitGroup
			done := make(chan struct{})
			for _, method := range tc.writers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mid, _ := db.MethodID(method)
					for i := 1; i <= rounds; i++ {
						// Every transaction writes poison first. A committing one
						// writes again (it keeps one record): setters leave 1, 2,
						// 3, …, bumpers a net +1. Every third round first runs one
						// that aborts on the poison.
						first, second := storage.IntV(poison), storage.IntV(int64(i))
						if method == "bump" {
							second = storage.IntV(1 - poison)
						}
						if i%3 == 0 {
							err := db.RunWithRetry(func(tx *txn.Txn) error {
								if _, err := db.SendID(tx, oid, mid, first); err != nil {
									return err
								}
								return errAbort
							})
							if !errors.Is(err, errAbort) {
								t.Error(err)
								return
							}
						}
						if err := db.RunWithRetry(func(tx *txn.Txn) error {
							if _, err := db.SendID(tx, oid, mid, first); err != nil {
								return err
							}
							_, err := db.SendID(tx, oid, mid, second)
							return err
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for r := 0; r < readers; r++ {
				stop.Add(1)
				go func() {
					defer stop.Done()
					last := make([]int64, len(tc.reads))
					for {
						select {
						case <-done:
							return
						default:
						}
						s := db.Txns.BeginSnapshot()
						for pass := 0; pass < 2; pass++ { // the second pass must repeat the first
							for i, method := range tc.reads {
								v, err := db.Send(s, oid, method)
								if err != nil {
									t.Error(err)
									endSnapshot(db, s)
									return
								}
								if v.I < last[i] || (pass == 1 && v.I != last[i]) {
									t.Errorf("snapshot at epoch %d: %s = %d after %d (pass %d)", s.SnapshotEpoch(), method, v.I, last[i], pass)
								}
								last[i] = v.I
							}
						}
						endSnapshot(db, s)
						runtime.Gosched()
					}
				}()
			}
			wg.Wait()
			close(done)
			stop.Wait()

			s := beginSnapshot(t, db)
			for _, method := range tc.reads {
				want := int64(rounds)
				if method == "getc" {
					want = int64(rounds * len(tc.writers))
				}
				if v, err := db.Send(s, oid, method); err != nil || v.I != want {
					t.Errorf("final %s = %v (err %v), want %d", method, v, err, want)
				}
			}
		})
	}
}

// The 0-alloc acceptance: a warm snapshot send and a warm snapshot
// scan perform zero heap allocations. Exact without -race; under it
// sync.Pool drops recycled contexts at random, so the bound is the
// best of a few runs (minAllocsPerRun).
func snapshotAllocs(runs int, f func()) float64 {
	if raceEnabled {
		return minAllocsPerRun(runs, f)
	}
	return testing.AllocsPerRun(runs, f)
}

func TestWarmSnapshotSendZeroAllocs(t *testing.T) {
	db := newSnapLedgerDB(t, FineCC{})
	oids := seedSnapLedger(t, db)
	mid, _ := db.MethodID("summary")
	s := beginSnapshot(t, db)
	if _, err := db.SendID(s, oids[0], mid); err != nil {
		t.Fatal(err)
	}
	allocs := snapshotAllocs(200, func() {
		if _, err := db.SendID(s, oids[0], mid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm snapshot SendID allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWarmSnapshotScanZeroAllocs(t *testing.T) {
	db := newSnapLedgerDB(t, FineCC{})
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 64; i++ {
			if _, err := db.NewInstance(tx, "account",
				storage.StrV("a"), storage.IntV(int64(i)), storage.IntV(1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cid, _ := db.ClassID("account")
	mid, _ := db.MethodID("getbalance")
	s := beginSnapshot(t, db)
	if _, err := db.DomainScanID(s, cid, mid, false, nil); err != nil {
		t.Fatal(err)
	}
	allocs := snapshotAllocs(100, func() {
		n, err := db.DomainScanID(s, cid, mid, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != 64 {
			t.Fatalf("visited %d, want 64", n)
		}
	})
	if allocs != 0 {
		t.Errorf("warm snapshot DomainScanID allocates %.1f objects/op, want 0", allocs)
	}
}

// beginSnapshot opens a snapshot transaction held across the test's
// commits and ends it when the test finishes.
func beginSnapshot(t *testing.T, db *DB) *txn.Txn {
	s := db.Txns.BeginSnapshot()
	t.Cleanup(func() { endSnapshot(db, s) })
	return s
}

// endSnapshot ends a snapshot transaction begun outside RunReadOnly,
// releasing its epoch pin so reclamation can advance past it.
func endSnapshot(db *DB, s *txn.Txn) {
	s.Commit() //nolint:errcheck // a snapshot commit cannot fail
	db.Txns.Release(s)
}
