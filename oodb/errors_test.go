package oodb

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/lock"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The taxonomy's contract: ErrorCode classifies every sentinel the
// engine can surface, a reconstructed &Error{Code} satisfies exactly
// the predicates the original error did, and codes survive a
// marshal/unmarshal round trip (they are the wire format).
func TestErrorCodeClassification(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{lock.ErrTimeout, CodeTimeout},
		{lock.ErrCanceled, CodeCanceled},
		{txn.ErrSnapshotWrite, CodeSnapshotWrite},
		{txn.ErrReadOnly, CodeReadOnly},
		{wal.ErrDiskFull, CodeDiskFull},
		{wal.ErrWaitCanceled, CodeCanceled},
		{context.Canceled, CodeCanceled},
		{context.DeadlineExceeded, CodeCanceled},
		{errors.New("anything else"), CodeOther},
		{fmt.Errorf("wrapped: %w", lock.ErrTimeout), CodeTimeout},
		{fmt.Errorf("wrapped: %w", wal.ErrDiskFull), CodeDiskFull},
	}
	for _, c := range cases {
		if got := ErrorCode(c.err); got != c.want {
			t.Errorf("ErrorCode(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	// A client reconstructs errors as &Error{Code, Msg}. For every code,
	// the reconstruction must hit the same predicate as the original,
	// and re-deriving the code must be lossless.
	preds := map[Code]func(error) bool{
		CodeDeadlock:      IsDeadlock,
		CodeTimeout:       IsTimeout,
		CodeReadOnly:      IsReadOnly,
		CodeDiskFull:      IsDiskFull,
		CodeSnapshotWrite: IsSnapshotWrite,
		CodeCanceled:      IsCanceled,
	}
	for code, pred := range preds {
		e := &Error{Code: code, Msg: "remote: " + code.String()}
		if !pred(e) {
			t.Errorf("&Error{%v} fails its own predicate", code)
		}
		if got := ErrorCode(e); got != code {
			t.Errorf("ErrorCode(&Error{%v}) = %v", code, got)
		}
		if got := ErrorCode(fmt.Errorf("wrapped: %w", e)); got != code {
			t.Errorf("ErrorCode(wrapped &Error{%v}) = %v", code, got)
		}
		// No cross-talk with the other specific predicates.
		for other, otherPred := range preds {
			if other == code {
				continue
			}
			// DiskFull implies ReadOnly by design: the log is wedged.
			if code == CodeDiskFull && other == CodeReadOnly {
				if !otherPred(e) {
					t.Errorf("CodeDiskFull must satisfy IsReadOnly")
				}
				continue
			}
			if otherPred(e) {
				t.Errorf("&Error{%v} satisfies %v's predicate too", code, other)
			}
		}
	}
	if ErrorCode(&Error{Code: CodeOther, Msg: "x"}) != CodeOther {
		t.Error("CodeOther does not round trip")
	}
}

// The numeric values are the wire format: reordering the enum would
// make old clients misclassify new servers' errors.
func TestErrorCodeWireStability(t *testing.T) {
	pinned := map[Code]uint8{
		CodeOK: 0, CodeDeadlock: 1, CodeTimeout: 2, CodeReadOnly: 3,
		CodeDiskFull: 4, CodeSnapshotWrite: 5, CodeCanceled: 6, CodeOther: 7,
	}
	for code, val := range pinned {
		if uint8(code) != val {
			t.Errorf("%v = %d, pinned wire value %d", code, uint8(code), val)
		}
	}
}

func TestErrorMessage(t *testing.T) {
	e := &Error{Code: CodeDeadlock, Msg: "victim of cycle"}
	if e.Error() != "victim of cycle" {
		t.Errorf("Error() = %q", e.Error())
	}
	if (&Error{Code: CodeTimeout}).Error() == "" {
		t.Error("empty Msg must still render something")
	}
}

// OpenWith takes the whole configuration as one struct; a directory
// written under one Options value recovers under a literal one.
func TestOptionsOpenWith(t *testing.T) {
	schema, err := Compile("class c is instance variables are x : integer end")
	if err != nil {
		t.Fatal(err)
	}
	var o Options
	o.Dir = t.TempDir()
	o.Sync = SyncNever
	db, err := OpenWith(schema, Fine, o)
	if err != nil {
		t.Fatal(err)
	}
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		oid, err = tx.New("c", int64(5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with a struct literal: same directory recovers.
	db2, err := OpenWith(schema, Fine, Options{Dir: o.Dir, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.View(func(tx *Txn) error {
		if _, err := tx.Send(oid, "x"); err == nil {
			t.Error("field read as method should fail") // sanity: schema has no methods
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
