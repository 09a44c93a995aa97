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
	if _, ok := db.Store.Get(oid); ok {
		t.Fatal("delete must take effect inside the transaction")
	}
	tx.Abort()

	restored, ok := db.Store.Get(oid)
	if !ok {
		t.Fatal("abort must restore the deleted instance")
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
	noInstance := func(what string, err error) error {
		if err == nil || !strings.Contains(err.Error(), "no instance") {
			return fmt.Errorf("%s: err = %v, want no instance", what, err)
		}
		return nil
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
