package txn

import (
	"context"
	"testing"

	"repro/internal/lock"
	"repro/internal/wal"
)

// A pipelined commit releases its locks once the record is sequenced,
// not when it is hardened: with the batch's fsync parked on a gate, a
// conflicting transaction acquires the released lock immediately while
// the durability future is still unresolved; opening the gate and
// closing the log then hardens the batch and resolves the future
// cleanly. No timing assertions — if the locks were not released, the
// second acquire would block until the test times out.
func TestCommitPipelinedReleasesLocksBeforeHarden(t *testing.T) {
	m, st, s := setup(t)
	dir := t.TempDir()
	fs := newGateFS()
	w, _, err := wal.Open(dir, st, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(w)
	fs.armed.Store(true)

	cls := s.Order[0]
	tx := m.Begin()
	in, marker, err := st.NewUncommitted(uint64(tx.ID), cls)
	if err != nil {
		t.Fatal(err)
	}
	tx.LogCreate(in, marker)
	res := lock.InstanceRes(uint64(in.OID))
	if err := m.Locks().Acquire(tx.ID, res, lock.X); err != nil {
		t.Fatal(err)
	}
	fut, err := tx.CommitPipelined()
	if err != nil {
		t.Fatal(err)
	}
	if tx.State() != Committed {
		t.Fatalf("state %v after pipelined commit", tx.State())
	}

	// The lock is free although the fsync is still parked on the gate.
	<-fs.parked
	tx2 := m.Begin()
	if err := m.Locks().Acquire(tx2.ID, res, lock.X); err != nil {
		t.Fatalf("lock not released at sequencing: %v", err)
	}
	tx2.Abort()

	// Close drains the batch; the future resolves durable.
	close(fs.gate)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatalf("future resolved with %v", err)
	}
	if err := fut.Wait(); err != nil { // idempotent
		t.Fatalf("second Wait: %v", err)
	}
}

// Read-only (and volatile) pipelined commits return an already-resolved
// future and append nothing to the log.
func TestRunWithRetryPipelinedReadOnlyResolved(t *testing.T) {
	m, st, _ := setup(t)
	dir := t.TempDir()
	w, _, err := wal.Open(dir, st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m.SetWAL(w)
	fut, err := m.RunWithRetryPipelined(context.Background(), func(t *Txn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Records; got != 0 {
		t.Fatalf("read-only pipelined commit logged %d records", got)
	}

	// Volatile manager: same contract, zero-value future.
	m2, _, _ := setup(t)
	fut2, err := m2.RunWithRetryPipelined(context.Background(), func(t *Txn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := fut2.Wait(); err != nil {
		t.Fatal(err)
	}
	var zero Future
	if err := zero.Wait(); err != nil {
		t.Fatalf("zero future: %v", err)
	}
}

// A pipelined commit on a closed log fails synchronously and rolls the
// transaction back, exactly like the blocking path.
func TestCommitPipelinedClosedLogRollsBack(t *testing.T) {
	m, st, s := setup(t)
	dir := t.TempDir()
	w, _, err := wal.Open(dir, st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cls := s.Order[0]
	tx := m.Begin()
	in, marker, err := st.NewUncommitted(uint64(tx.ID), cls)
	if err != nil {
		t.Fatal(err)
	}
	tx.LogCreate(in, marker)
	if _, err := tx.CommitPipelined(); err == nil {
		t.Fatal("pipelined commit succeeded on a closed log")
	}
	if tx.State() != Aborted {
		t.Fatalf("state %v after failed pipelined commit, want Aborted", tx.State())
	}
	if _, ok := st.Get(in.OID); ok {
		t.Fatal("failed pipelined commit left its create behind")
	}
}
