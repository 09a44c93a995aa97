package engine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

func TestDeleteRemovesFromExtent(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db := newFigure1DB(t, s)
			oid, _ := seedC2(t, db, false)
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				return db.DeleteInstance(tx, oid)
			}); err != nil {
				t.Fatal(err)
			}
			if _, ok := db.Store.Get(oid); ok {
				t.Error("deleted instance still reachable")
			}
			if got := len(db.Store.Extent("c2")); got != 0 {
				t.Errorf("extent still has %d members", got)
			}
			// Messaging the ghost fails cleanly.
			err := db.RunWithRetry(func(tx *txn.Txn) error {
				_, err := db.Send(tx, oid, "m4", storage.IntV(1), storage.IntV(2))
				return err
			})
			if err == nil || !strings.Contains(err.Error(), "no instance") {
				t.Errorf("err = %v", err)
			}
		})
	}
}

func TestDeleteAbortRestores(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	in, _ := db.Store.Get(oid)
	before := in.Snapshot()

	tx := db.Begin()
	// Write a field, then delete, then abort: the object must come back
	// with its *original* state.
	if _, err := db.Send(tx, oid, "m2", storage.IntV(9)); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteInstance(tx, oid); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Send(tx, oid, "m3"); err == nil || !strings.Contains(err.Error(), "no instance") {
		t.Fatalf("the deleter's own send after the delete: err = %v, want no instance", err)
	}
	if n, err := db.DomainScan(tx, "c2", "m3", false, nil); err != nil || n != 0 {
		t.Fatalf("the deleter's own scan visited %d (err %v), want 0", n, err)
	}
	tx.Abort()

	restored, ok := db.Store.Get(oid)
	if !ok {
		t.Fatal("abort must leave the deleted instance in place")
	}
	after := restored.Snapshot()
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("slot %d = %v after abort, want %v", i, after[i], before[i])
		}
	}
	if got := len(db.Store.Extent("c2")); got != 1 {
		t.Errorf("extent has %d members after abort", got)
	}
}

func TestCreateAbortRemoves(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	tx := db.Begin()
	in, err := db.NewInstance(tx, "c1", storage.IntV(5))
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, ok := db.Store.Get(in.OID); ok {
		t.Error("aborted creation must not leave the instance behind")
	}
	if got := len(db.Store.Extent("c1")); got != 0 {
		t.Errorf("extent has %d members after aborted creation", got)
	}
}

// Deletion excludes concurrent readers and writers of the instance under
// every protocol.
func TestDeleteConflictsWithAccess(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db := newFigure1DB(t, s)
			oid, _ := seedC2(t, db, false)

			reader := db.Begin()
			if _, err := db.Send(reader, oid, "m3"); err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				done <- db.RunWithRetry(func(tx *txn.Txn) error {
					return db.DeleteInstance(tx, oid)
				})
			}()
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-done:
				t.Fatalf("%s: delete finished while a reader held m3 (err=%v)", s.Name(), err)
			default:
			}
			reader.Commit()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Deletion participates in undo ordering: create + delete in one
// transaction aborts back to nothing.
func TestCreateDeleteAbortIsNoop(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	tx := db.Begin()
	in, err := db.NewInstance(tx, "c1", storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteInstance(tx, in.OID); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	// Reverse order: restore (undo delete), then remove (undo create).
	if _, ok := db.Store.Get(in.OID); ok {
		t.Error("create+delete+abort must leave nothing")
	}
	if db.Store.Count() != 0 {
		t.Errorf("store has %d instances", db.Store.Count())
	}
}

func TestDeleteUnknownOID(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		return db.DeleteInstance(tx, 404)
	})
	if err == nil {
		t.Error("deleting a missing OID must fail")
	}
}

// TestUncommittedCreationInvisible: an instance whose creation has not
// committed does not exist for any other transaction, under every
// strategy. A send, an intentional scan and a delete by another
// transaction find nothing, so nothing of theirs can vanish with an
// aborting creator or ride into a committing creator's create image.
// The creator sees its instance, and once the creation commits so does
// everyone else.
func TestUncommittedCreationInvisible(t *testing.T) {
	c, err := core.CompileSource(escrowAccountSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		for _, commit := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/commit=%t", s.Name(), commit), func(t *testing.T) {
				db := Open(c, s)
				cid, _ := db.ClassID("account")
				deposit, _ := db.MethodID("deposit")
				t1 := db.Begin()
				in, err := db.NewInstance(t1, "account", storage.IntV(100))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.Send(t1, in.OID, "deposit", storage.IntV(1)); err != nil {
					t.Fatalf("the creator's own send: %v", err)
				}

				other := make(chan error, 1)
				go func() {
					other <- db.RunWithRetry(func(tx *txn.Txn) error {
						_, err := db.Send(tx, in.OID, "deposit", storage.IntV(1000))
						if err := noInstance("send", err); err != nil {
							return err
						}
						if n, err := db.DomainScanID(tx, cid, deposit, false, nil, storage.IntV(1000)); err != nil || n != 0 {
							return fmt.Errorf("scan visited %d (err %v), want 0", n, err)
						}
						return noInstance("delete", db.DeleteInstance(tx, in.OID))
					})
				}()
				select {
				case err := <-other:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("another transaction blocked on an uncommitted creation")
				}

				if commit {
					if err := t1.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					t1.Abort()
				}
				if err := db.RunWithRetry(func(tx *txn.Txn) error {
					v, err := db.Send(tx, in.OID, "getbalance")
					if !commit {
						return noInstance("send after the creator aborted", err)
					}
					if err != nil || v.I != 101 {
						return fmt.Errorf("balance after the creator committed = %v (err %v), want 101", v, err)
					}
					return nil
				}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// seedAccount commits one account of the escrow-account schema holding
// balance.
func seedAccount(t *testing.T, db *DB, balance int64) storage.OID {
	t.Helper()
	var oid storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "account", storage.IntV(balance))
		if err == nil {
			oid = in.OID
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

// waitQueued waits until the lock manager has queued n requests since
// its Blocks count read from.
func waitQueued(t *testing.T, db *DB, from, n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); db.Locks().Snapshot().Blocks < from+n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests queued, want %d", db.Locks().Snapshot().Blocks-from, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func noInstance(what string, err error) error {
	if err == nil || !strings.Contains(err.Error(), "no instance") {
		return fmt.Errorf("%s: err = %v, want no instance", what, err)
	}
	return nil
}

// TestUncommittedDeleteInvisible: a delete is invisible to every other
// transaction until it commits, under every strategy. A snapshot reads
// the instance; a locking send waits for the deleter, then finds the
// instance with its value if the delete aborts and nothing if it
// commits, and so does the same transaction's scan.
func TestUncommittedDeleteInvisible(t *testing.T) {
	c, err := core.CompileSource(escrowAccountSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		for _, commit := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/commit=%t", s.Name(), commit), func(t *testing.T) {
				db := Open(c, s)
				cid, _ := db.ClassID("account")
				get, _ := db.MethodID("getbalance")
				oid := seedAccount(t, db, 100)
				t1 := db.Begin()
				if err := db.DeleteInstance(t1, oid); err != nil {
					t.Fatal(err)
				}
				if err := db.RunReadOnly(func(tx *txn.Txn) error {
					if v, err := db.SendID(tx, oid, get); err != nil || v.I != 100 {
						return fmt.Errorf("snapshot begun mid-delete read %v (err %v), want 100", v, err)
					}
					return nil
				}); err != nil {
					t.Error(err)
				}

				blocks := db.Locks().Snapshot().Blocks
				other := make(chan error, 1)
				go func() {
					other <- db.RunWithRetry(func(tx *txn.Txn) error {
						v, err := db.SendID(tx, oid, get)
						want := 1
						if commit {
							want = 0
							if err := noInstance("send after the delete committed", err); err != nil {
								return err
							}
						} else if err != nil || v.I != 100 {
							return fmt.Errorf("send after the delete aborted = %v (err %v), want 100", v, err)
						}
						if n, err := db.DomainScanID(tx, cid, get, false, nil); err != nil || n != want {
							return fmt.Errorf("scan visited %d (err %v), want %d", n, err, want)
						}
						return nil
					})
				}()
				waitQueued(t, db, blocks, 1)
				select {
				case err := <-other:
					t.Fatalf("another transaction's send did not wait for the deleter (err %v)", err)
				case <-time.After(10 * time.Millisecond):
				}
				if commit {
					if err := t1.Commit(); err != nil {
						t.Fatal(err)
					}
				} else {
					t1.Abort()
				}
				if err := <-other; err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestDeletedWhileWaiting: a send, an intentional scan and a delete
// queued on a transaction that then deletes the receiver and commits
// find no instance when they resume, under every strategy: the send
// fails and leaves its transaction nothing to commit, the scan skips the
// instance, and the delete fails. Under field locking the send and the
// scan queue at a field lock mid-frame, where the activation fails, so
// the scan fails with it.
func TestDeletedWhileWaiting(t *testing.T) {
	c, err := core.CompileSource(escrowAccountSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db := Open(c, s)
			cid, _ := db.ClassID("account")
			deposit, _ := db.MethodID("deposit")
			oid := seedAccount(t, db, 100)
			t1 := db.Begin()
			if _, err := db.SendID(t1, oid, deposit, storage.IntV(1)); err != nil {
				t.Fatal(err)
			}

			blocks := db.Locks().Snapshot().Blocks
			sent, scanned, deleted := make(chan error, 1), make(chan error, 1), make(chan error, 1)
			go func() {
				tx := db.Begin()
				deleted <- noInstance("queued delete", db.DeleteInstance(tx, oid))
				tx.Abort()
			}()
			go func() {
				tx := db.Begin()
				_, err := db.SendID(tx, oid, deposit, storage.IntV(1000))
				err = noInstance("queued send", err)
				if d := tx.UndoDepth(); d != 0 && err == nil {
					err = fmt.Errorf("queued send left %d undo entries", d)
				}
				if cerr := tx.Commit(); err == nil {
					err = cerr
				}
				sent <- err
			}()
			go func() {
				tx := db.Begin()
				n, err := db.DomainScanID(tx, cid, deposit, false, nil, storage.IntV(1000))
				switch {
				case s.Name() == "field":
					err = noInstance("queued scan", err)
				case err != nil || n != 0:
					err = fmt.Errorf("queued scan visited %d (err %v), want 0", n, err)
				}
				tx.Abort()
				scanned <- err
			}()
			waitQueued(t, db, blocks, 3)
			if err := db.DeleteInstance(t1, oid); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatal(err)
			}
			for _, ch := range []chan error{sent, scanned, deleted} {
				if err := <-ch; err != nil {
					t.Error(err)
				}
			}
			if _, ok := db.Store.Get(oid); ok || db.Store.Count() != 0 {
				t.Errorf("store holds %d instances after the delete committed", db.Store.Count())
			}
		})
	}
}
