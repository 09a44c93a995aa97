package engine

import (
	"strings"
	"testing"
	"time"

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
