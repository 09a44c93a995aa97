package txn

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/wal"
)

// commitModes are the retry loop's three ways to commit: blocking,
// pipelined and then waited on, and blocking under a cancellable context.
var commitModes = []struct {
	name string
	run  func(m *Manager, fn func(*Txn) error) error
}{
	{"blocking", func(m *Manager, fn func(*Txn) error) error {
		return m.RunWithRetry(context.Background(), fn)
	}},
	{"pipelined", func(m *Manager, fn func(*Txn) error) error {
		fut, err := m.RunWithRetryPipelined(context.Background(), fn)
		if err != nil {
			return err
		}
		return fut.Wait()
	}},
	{"cancellable", func(m *Manager, fn func(*Txn) error) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		return m.RunWithRetry(ctx, fn)
	}},
}

// Every writing commit takes exactly one epoch step, whatever its mode
// and whether a log is attached: the epoch is drawn once the commit
// stands, stamped on its records and retired. A commit that wrote
// nothing takes none.
func TestCommitAdvancesStableEpochByOne(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, mode := range commitModes {
			name := "volatile/" + mode.name
			if durable {
				name = "durable/" + mode.name
			}
			t.Run(name, func(t *testing.T) {
				m, st, s := setup(t)
				if durable {
					w, _, err := wal.Open(t.TempDir(), st, wal.Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer w.Close() //nolint:errcheck
					m.SetWAL(w)
				}
				in, err := st.NewInstance(s.Class("c1"), storage.IntV(1))
				if err != nil {
					t.Fatal(err)
				}
				before := st.StableEpoch()
				if err := mode.run(m, func(tx *Txn) error {
					tx.Write(in, 0, storage.IntV(2), false)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got := st.StableEpoch(); got != before+1 {
					t.Errorf("a writing commit moved the stable epoch %d → %d, want one step", before, got)
				}
				if v, ok := in.SnapshotGet(0, st.StableEpoch()); !ok || v.I != 2 {
					t.Errorf("snapshot at the stable epoch reads %v ok=%t, want 2", v, ok)
				}
				if err := mode.run(m, func(*Txn) error { return nil }); err != nil {
					t.Fatal(err)
				}
				if got := st.StableEpoch(); got != before+1 {
					t.Errorf("a commit that wrote nothing moved the stable epoch to %d", got)
				}
			})
		}
	}
}

// TestSnapshotHoldCommitAcrossFsync: snapshots hold off a blocking
// durable commit until the log acknowledges it. While the fsync is
// parked, a snapshot reads the old value; once the commit returns, a
// new snapshot reads the new one and the early snapshot still reads the
// old. If the fsync fails instead, the commit returns the error with
// the write in memory, and the new value is never readable by a
// snapshot: the durable epoch stays below it.
func TestSnapshotHoldCommitAcrossFsync(t *testing.T) {
	for _, fail := range []bool{false, true} {
		name := "hardened"
		if fail {
			name = "fsync fails"
		}
		t.Run(name, func(t *testing.T) {
			m, st, s := setup(t)
			fs := newGateFS()
			w, _, err := wal.Open(t.TempDir(), st, wal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close() //nolint:errcheck // fails after the injected fsync error
			m.SetWAL(w)
			in, err := st.NewInstance(s.Class("c1"), storage.IntV(1))
			if err != nil {
				t.Fatal(err)
			}
			reads := func(tx *Txn, want int64, when string) {
				t.Helper()
				if v, ok := in.SnapshotGet(0, tx.SnapshotEpoch()); !ok || v.I != want {
					t.Errorf("%s: snapshot reads %v ok=%t, want %d", when, v, ok, want)
				}
			}
			snapshot := func(want int64, when string) {
				t.Helper()
				tx := m.BeginSnapshot()
				reads(tx, want, when)
				tx.Commit() //nolint:errcheck // a snapshot commit cannot fail
				m.Release(tx)
			}
			fs.armed.Store(true)
			done := make(chan error, 1)
			go func() {
				done <- m.RunWithRetry(context.Background(), func(tx *Txn) error {
					tx.Write(in, 0, storage.IntV(2), false)
					return nil
				})
			}()
			<-fs.parked
			early := m.BeginSnapshot()
			reads(early, 1, "fsync parked")
			fs.fail.Store(fail)
			close(fs.gate)
			err = <-done
			reads(early, 1, "early snapshot after the commit returned")
			early.Commit() //nolint:errcheck // a snapshot commit cannot fail
			m.Release(early)

			if !fail {
				if err != nil {
					t.Fatal(err)
				}
				snapshot(2, "after the commit")
				return
			}
			if err == nil {
				t.Fatal("commit succeeded over a failed fsync")
			}
			snapshot(1, "after the failed commit")
		})
	}
}

// TestFailStopCommitModesKeepUnackedFromReaders: under every commit
// mode, a commit whose fsync fails returns the error with its write in
// memory, and no reader sees the write. A snapshot reads the value
// before it; the retry loop, now degraded, runs every transaction as a
// snapshot at the durable epoch, which reads that value too and refuses
// any write as read-only.
func TestFailStopCommitModesKeepUnackedFromReaders(t *testing.T) {
	for _, mode := range commitModes {
		t.Run(mode.name, func(t *testing.T) {
			m, st, s := setup(t)
			fs := newGateFS()
			w, _, err := wal.Open(t.TempDir(), st, wal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close() //nolint:errcheck // fails after the injected fsync error
			m.SetWAL(w)
			in, err := st.NewInstance(s.Class("c1"), storage.IntV(1))
			if err != nil {
				t.Fatal(err)
			}
			fs.armed.Store(true)
			fs.fail.Store(true)
			close(fs.gate) // every fsync from here fails at once
			err = mode.run(m, func(tx *Txn) error {
				tx.Write(in, 0, storage.IntV(2), false)
				return nil
			})
			if !errors.Is(err, wal.ErrLogFailed) {
				t.Fatalf("commit over a failed fsync returned %v, want ErrLogFailed", err)
			}
			if got := in.Get(0); got != storage.IntV(2) {
				t.Errorf("live value %v after the failed commit, want its write 2 in memory", got)
			}
			if err := mode.run(m, func(tx *Txn) error {
				if !tx.IsSnapshot() {
					t.Error("the degraded retry loop began a locking transaction")
				}
				if v, ok := in.SnapshotGet(0, tx.SnapshotEpoch()); !ok || v != storage.IntV(1) {
					t.Errorf("degraded read %v ok=%t, want the acknowledged 1", v, ok)
				}
				return nil
			}); err != nil {
				t.Fatalf("degraded read: %v", err)
			}
			if err := mode.run(m, func(tx *Txn) error { return tx.Writable() }); !errors.Is(err, ErrReadOnly) {
				t.Errorf("degraded write returned %v, want ErrReadOnly", err)
			}
		})
	}
}

// TestSnapshotDurableEpochKeepsUnackedBeforeImage: a commit whose fsync
// is parked has retired its epoch, but the log has not acknowledged it,
// so the reclamation watermark stays below it. A second writer of the
// same slot prunes as it links and must leave the commit's record; when
// the fsync then fails, a snapshot still rolls the write back to the
// value before it.
func TestSnapshotDurableEpochKeepsUnackedBeforeImage(t *testing.T) {
	m, st, s := setup(t)
	fs := newGateFS()
	w, _, err := wal.Open(t.TempDir(), st, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //nolint:errcheck // fails after the injected fsync error
	m.SetWAL(w)
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	fs.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- m.RunWithRetry(context.Background(), func(tx *Txn) error {
			tx.Write(in, 0, storage.IntV(2), false)
			return nil
		})
	}()
	<-fs.parked
	for st.StableEpoch() < st.LastEpoch() {
		runtime.Gosched()
	}
	if n := in.VersionCount(); n != 1 {
		t.Fatalf("%d records on the chain before the second writer, want 1", n)
	}
	second := m.Begin()
	second.Write(in, 0, storage.IntV(3), false) // prunes what the watermark passed
	if n := in.VersionCount(); n != 2 {
		t.Errorf("%d records on the chain after the second writer linked, want 2: the unacknowledged one was pruned", n)
	}
	fs.fail.Store(true)
	close(fs.gate)
	if err := <-done; err == nil {
		t.Fatal("commit succeeded over a failed fsync")
	}
	second.Abort()
	snap := m.BeginSnapshot()
	defer m.Release(snap)
	defer snap.Commit() //nolint:errcheck // a snapshot commit cannot fail
	if v, ok := in.SnapshotGet(0, snap.SnapshotEpoch()); !ok || v != storage.IntV(1) {
		t.Errorf("snapshot after the failed commit reads %v ok=%t, want the pre-commit 1", v, ok)
	}
}

// A transaction's writes to an instance it created link no record and
// leave no undo entry: the chain holds only the creation marker, and the
// commit logs one create op with the final values and no write op. An
// aborted creator leaves nothing behind.
func TestCreatorWritesLinkNoRecord(t *testing.T) {
	m, st, s := setup(t)
	dir := t.TempDir()
	w, _, err := wal.Open(dir, st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(w)
	c1 := s.Class("c1")
	createAndWrite := func() (*Txn, *storage.Instance) {
		tx := m.Begin()
		in, marker, err := st.NewUncommitted(uint64(tx.ID), c1, storage.IntV(1))
		if err != nil {
			t.Fatal(err)
		}
		tx.LogCreate(in, marker)
		tx.Write(in, 0, storage.IntV(2), false)
		tx.Write(in, 0, storage.IntV(3), true)
		tx.Write(in, 1, storage.BoolV(true), false)
		if n := in.VersionCount(); n != 1 {
			t.Errorf("creator's writes left %d records on the chain, want the marker alone", n)
		}
		if n := tx.UndoDepth(); n != 1 {
			t.Errorf("undo depth %d, want 1 (the creation)", n)
		}
		return tx, in
	}

	aborted, gone := createAndWrite()
	aborted.Abort()
	if _, ok := st.Get(gone.OID); ok {
		t.Error("an aborted creation left its instance in the store")
	}

	tx, in := createAndWrite()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	// The aborted creation took the OID below the record's, so the log
	// leases it first: the record is the segment's last frame.
	var last []byte
	for pos := 0; pos < len(seg); {
		end := pos + codec.HeaderSize + int(binary.LittleEndian.Uint32(seg[pos:]))
		last, pos = seg[pos+codec.HeaderSize:end], end
	}
	rec, err := wal.DecodeRecord(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 1 || rec.Ops[0].Kind != wal.OpCreate || rec.Ops[0].OID != in.OID {
		t.Fatalf("logged ops %+v, want one create of %d", rec.Ops, in.OID)
	}
	if got := rec.Ops[0].Slots; len(got) < 2 || got[0] != storage.IntV(3) || got[1] != storage.BoolV(true) {
		t.Errorf("create image %v, want the final values 3 and true", got)
	}
}
