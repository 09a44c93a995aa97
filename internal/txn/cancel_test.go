package txn

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/storage"
	"repro/internal/wal"
)

// gateFS is a slow disk: once armed, every file Sync parks until the
// gate opens, announcing itself on parked first. With fail set, a
// parked Sync then reports an error instead of syncing.
type gateFS struct {
	wal.FS
	armed  atomic.Bool
	fail   atomic.Bool
	parked chan struct{} // cap 1: a token while some Sync is parked
	gate   chan struct{} // closed to let the parked fsyncs through
}

func newGateFS() *gateFS {
	return &gateFS{
		FS:     wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1}), // pass-through over the real disk
		parked: make(chan struct{}, 1),
		gate:   make(chan struct{}),
	}
}

func (g *gateFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, g: g}, nil
}

type gateFile struct {
	wal.File
	g *gateFS
}

func (f *gateFile) Sync() error {
	if f.g.armed.Load() {
		select {
		case f.g.parked <- struct{}{}:
		default:
		}
		<-f.g.gate
		if f.g.fail.Load() {
			return errors.New("gateFS: injected fsync failure")
		}
	}
	return f.File.Sync()
}

// cancelWhen cancels once cond holds (the conditions here are counters
// the code under test bumps right before it parks). The returned wait
// joins the watcher so it cannot outlive its test.
func cancelWhen(t *testing.T, cancel context.CancelFunc, what string, cond func() bool) (wait func()) {
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		defer cancel()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Errorf("timed out waiting for %s", what)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	return func() { <-stopped }
}

// runFn is RunWithRetry or RunWithRetryPipelined with the Future dropped.
type runFn func(*Manager, context.Context, func(*Txn) error) error

// runModes are the retry loop's two entry points.
var runModes = []struct {
	name string
	run  runFn
}{
	{"blocking", func(m *Manager, ctx context.Context, fn func(*Txn) error) error {
		return m.RunWithRetry(ctx, fn)
	}},
	{"pipelined", func(m *Manager, ctx context.Context, fn func(*Txn) error) error {
		_, err := m.RunWithRetryPipelined(ctx, fn)
		return err
	}},
}

// TestRunCancellation drives every cancellation point of the one retry
// loop, blocking and pipelined: before the first attempt, while queued
// on a lock, and during the retry backoff.
func TestRunCancellation(t *testing.T) {
	cases := []struct {
		name string
		body func(t *testing.T, run runFn)
	}{
		{"before first attempt", func(t *testing.T, run runFn) {
			m, _, _ := setup(t)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			err := run(m, ctx, func(*Txn) error {
				t.Error("fn ran under a canceled context")
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if got := m.Snapshot().Begun; got != 0 {
				t.Errorf("begun %d transactions, want 0", got)
			}
		}},
		{"queued on a lock", func(t *testing.T, run runFn) {
			m, st, s := setup(t)
			in, err := st.NewInstance(s.Class("c1"), storage.IntV(10))
			if err != nil {
				t.Fatal(err)
			}
			res := lock.InstanceRes(uint64(in.OID))
			blocker := m.Begin()
			if err := m.Locks().Acquire(blocker.ID, res, lock.X); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancelWhen(t, cancel, "the attempt to queue", func() bool { return m.Locks().Snapshot().Blocks == 1 })()
			calls := 0
			err = run(m, ctx, func(tx *Txn) error {
				calls++
				tx.Write(in, 0, storage.IntV(99), false)
				// What the engine's acquirer does for every lock.
				_, err := m.Locks().AcquireWaitDone(tx.ID, res, lock.X, tx.Done())
				return err
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want it to wrap context.Canceled", err)
			}
			if calls != 1 {
				t.Errorf("fn ran %d times, want 1 (a cancellation is not retried)", calls)
			}
			if got := in.Get(0).I; got != 10 {
				t.Errorf("slot = %d after the canceled attempt, want 10 (rolled back)", got)
			}
			if s := m.Snapshot(); s.Aborted != 1 || s.Retries != 0 {
				t.Errorf("aborted %d retries %d, want 1 and 0", s.Aborted, s.Retries)
			}
			// The waiter was withdrawn: once the blocker lets go, the
			// next requester is granted at once instead of queueing
			// behind a ghost.
			if err := blocker.Commit(); err != nil {
				t.Fatal(err)
			}
			m.Locks().WaitTimeout = 5 * time.Second
			next := m.Begin()
			if err := m.Locks().Acquire(next.ID, res, lock.X); err != nil {
				t.Errorf("acquire after withdrawal: %v", err)
			}
			next.Abort()
		}},
		{"during backoff", func(t *testing.T, run runFn) {
			// The first retry runs at once; the call parks in the
			// hour-long backoff before its second.
			m, _, _ := setup(t)
			m.RetryBackoff = time.Hour
			ctx, cancel := context.WithCancel(context.Background())
			defer cancelWhen(t, cancel, "the second retry", func() bool { return m.Snapshot().Retries == 2 })()
			calls := 0
			err := run(m, ctx, func(tx *Txn) error {
				calls++
				return &lock.DeadlockError{Txn: tx.ID}
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
			if calls != 2 {
				t.Errorf("fn ran %d times, want 2", calls)
			}
		}},
	}
	for _, tc := range cases {
		for _, mode := range runModes {
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) { tc.body(t, mode.run) })
		}
	}
}

// A cancellation that strikes during the durability wait cannot undo
// the commit: the record is sequenced, so the effects stay visible, the
// locks are already released, the error says so, a Sync barrier hardens
// the record, and recovery replays it. A read-only commit behind an
// unacknowledged pipelined write waits at a Sync barrier instead of a
// ticket, and the cancellation bounds that wait the same way.
func TestRunCancelDuringDurabilityWait(t *testing.T) {
	for _, tc := range []struct {
		name     string
		readOnly bool
	}{
		{"write", false},
		{"read-only behind a pipelined write", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, st, s := setup(t)
			dir := t.TempDir()
			fs := newGateFS()
			w, _, err := wal.Open(dir, st, wal.Options{FS: fs})
			if err != nil {
				t.Fatal(err)
			}
			m.SetWAL(w)
			fs.armed.Store(true)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var oid storage.OID
			var id lock.TxnID
			create := func(tx *Txn) error {
				in, marker, err := st.NewUncommitted(uint64(tx.ID), s.Class("c1"), storage.IntV(42))
				if err != nil {
					return err
				}
				oid, id = in.OID, tx.ID
				tx.LogCreate(in, marker)
				return m.Locks().Acquire(tx.ID, lock.InstanceRes(uint64(oid)), lock.X)
			}
			var fut Future
			wantCommitted := int64(1)
			if tc.readOnly {
				if fut, err = m.RunWithRetryPipelined(context.Background(), create); err != nil {
					t.Fatal(err)
				}
				<-fs.parked
				wantCommitted = 2
				err = m.RunWithRetry(ctx, func(tx *Txn) error {
					id = tx.ID
					cancel() // the barrier at commit is the only wait left
					return m.Locks().Acquire(tx.ID, lock.InstanceRes(uint64(oid)), lock.S)
				})
			} else {
				go func() {
					<-fs.parked
					cancel()
				}()
				err = m.RunWithRetry(ctx, create)
			}
			if !errors.Is(err, ErrUnackedCommit) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrUnackedCommit wrapping context.Canceled", err)
			}
			if _, ok := st.Get(oid); !ok {
				t.Error("the commit's effects are not visible")
			}
			if s := m.Snapshot(); s.Committed != wantCommitted || s.Aborted != 0 {
				t.Errorf("committed %d aborted %d, want %d and 0", s.Committed, s.Aborted, wantCommitted)
			}
			if held := m.Locks().LocksHeld(id); held != 0 {
				t.Errorf("the unacked commit still holds %d locks", held)
			}

			close(fs.gate)
			if err := fut.Wait(); err != nil {
				t.Fatalf("the pipelined write's ticket: %v", err)
			}
			if err := w.Sync(nil); err != nil {
				t.Fatalf("Sync after the unacked commit: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			st2 := storage.NewStore(s)
			w2, info, err := wal.Open(dir, st2, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if in, ok := st2.Get(oid); !ok || in.Get(0).I != 42 {
				t.Errorf("recovery did not replay the unacked commit (records applied: %d)", info.Records)
			}
		})
	}
}

// An uncancellable blocking commit runs the same sequence: it releases
// its locks once its record is sequenced and waits for the disk holding
// nothing. A snapshot begun while the fsync is parked does not see the
// write, because the durable epoch has not reached it; one begun after
// the commit returned does.
func TestSnapshotBlockingCommitReleasesLocksBeforeFsync(t *testing.T) {
	m, st, s := setup(t)
	dir := t.TempDir()
	fs := newGateFS()
	w, _, err := wal.Open(dir, st, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	m.SetWAL(w)
	fs.armed.Store(true)

	var id lock.TxnID
	var created *storage.Instance
	done := make(chan error, 1)
	go func() {
		done <- m.RunWithRetry(context.Background(), func(tx *Txn) error {
			in, marker, err := st.NewUncommitted(uint64(tx.ID), s.Class("c1"), storage.IntV(1))
			if err != nil {
				return err
			}
			id, created = tx.ID, in
			tx.LogCreate(in, marker)
			return m.Locks().Acquire(tx.ID, lock.InstanceRes(uint64(in.OID)), lock.X)
		})
	}()
	<-fs.parked
	for deadline := time.Now().Add(10 * time.Second); m.Locks().LocksHeld(id) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("holds %d locks while the fsync is parked, want 0", m.Locks().LocksHeld(id))
		}
		time.Sleep(50 * time.Microsecond)
	}
	visible := func() bool {
		tx := m.BeginSnapshot()
		defer m.Release(tx)
		defer tx.Commit() //nolint:errcheck // a snapshot commit cannot fail
		return created.SnapshotVisible(tx.SnapshotEpoch(), 0)
	}
	if visible() {
		t.Error("a snapshot begun while the fsync is parked sees the creation")
	}
	select {
	case err := <-done:
		t.Fatalf("the commit returned (%v) before its fsync", err)
	default:
	}
	close(fs.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !visible() {
		t.Error("a snapshot begun after the commit returned misses the creation")
	}
}

// RunReadOnly: a failed fn is an abort, not a commit, and a canceled
// context begins nothing.
func TestRunReadOnlyOutcomes(t *testing.T) {
	m, st, _ := setup(t)
	m.SetStore(st)
	boom := errors.New("boom")
	if err := m.RunReadOnly(context.Background(), func(*Txn) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if s := m.Snapshot(); s.Committed != 0 || s.Aborted != 1 {
		t.Errorf("after a failed view: committed %d aborted %d, want 0 and 1", s.Committed, s.Aborted)
	}
	if err := m.RunReadOnly(context.Background(), func(*Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); s.Committed != 1 || s.Aborted != 1 {
		t.Errorf("after a clean view: committed %d aborted %d, want 1 and 1", s.Committed, s.Aborted)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.RunReadOnly(ctx, func(*Txn) error {
		t.Error("fn ran under a canceled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got := m.Snapshot().Begun; got != 2 {
		t.Errorf("begun %d, want 2", got)
	}
}
