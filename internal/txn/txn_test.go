package txn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/wal"
)

func setup(t *testing.T) (*Manager, *storage.Store, *schema.Schema) {
	t.Helper()
	s, err := schema.FromSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	m, st := NewManager(lock.NewManager()), storage.NewStore(s)
	m.SetStore(st)
	return m, st, s
}

// add is what an escrow-slot store does in the engine: read, add and
// write back under the instance's execution latch, recorded as a delta.
func add(tx *Txn, in *storage.Instance, slot int, n int64) {
	in.LockExec()
	tx.Write(in, slot, storage.IntV(in.Get(slot).I+n), true)
	in.UnlockExec()
}

func TestCommitReleasesLocks(t *testing.T) {
	m, _, _ := setup(t)
	tx := m.Begin()
	res := lock.InstanceRes(1)
	if err := m.Locks().Acquire(tx.ID, res, lock.X); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Another transaction gets the lock immediately.
	tx2 := m.Begin()
	if err := m.Locks().Acquire(tx2.ID, res, lock.X); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	if tx.State() != Committed || tx2.State() != Aborted {
		t.Errorf("states: %v, %v", tx.State(), tx2.State())
	}
}

func TestAbortRollsBackInReverse(t *testing.T) {
	m, st, s := setup(t)
	c1 := s.Class("c1")
	in, err := st.NewInstance(c1, storage.IntV(10))
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	// Two writes to the same slot: only the first before-image counts.
	tx.Write(in, 0, storage.IntV(20), false)
	tx.Write(in, 0, storage.IntV(30), false)
	// And one write to another slot.
	tx.Write(in, 1, storage.BoolV(true), false)
	if tx.UndoDepth() != 2 {
		t.Errorf("undo depth = %d, want 2 (dedup per slot)", tx.UndoDepth())
	}
	tx.Abort()
	if got := in.Get(0); got != storage.IntV(10) {
		t.Errorf("f1 after abort = %v, want 10", got)
	}
	if got := in.Get(1); got != storage.BoolV(false) {
		t.Errorf("f2 after abort = %v, want false", got)
	}
}

func TestCommitKeepsWrites(t *testing.T) {
	m, st, s := setup(t)
	in, _ := st.NewInstance(s.Class("c1"), storage.IntV(1))
	tx := m.Begin()
	tx.Write(in, 0, storage.IntV(2), false)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := in.Get(0); got != storage.IntV(2) {
		t.Errorf("f1 after commit = %v", got)
	}
}

func TestDoubleFinishIsSafe(t *testing.T) {
	m, _, _ := setup(t)
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNotActive) {
		t.Errorf("second commit = %v, want ErrNotActive", err)
	}
	tx.Abort() // no-op
	if tx.State() != Committed {
		t.Error("abort after commit must not change state")
	}
	st := m.Snapshot()
	if st.Begun != 1 || st.Committed != 1 || st.Aborted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIDsMonotonic(t *testing.T) {
	m, _, _ := setup(t)
	a, b, c := m.Begin(), m.Begin(), m.Begin()
	if !(a.ID < b.ID && b.ID < c.ID) {
		t.Errorf("ids: %d %d %d", a.ID, b.ID, c.ID)
	}
}

func TestRunWithRetrySuccess(t *testing.T) {
	m, _, _ := setup(t)
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		return nil
	})
	if err != nil || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	if m.Snapshot().Committed != 1 {
		t.Error("must commit")
	}
}

func TestRunWithRetryPlainErrorNoRetry(t *testing.T) {
	m, _, _ := setup(t)
	boom := errors.New("boom")
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	if m.Snapshot().Aborted != 1 {
		t.Error("must abort")
	}
}

func TestRunWithRetryRetriesDeadlock(t *testing.T) {
	m, _, _ := setup(t)
	m.RetryBackoff = 0
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		if calls < 3 {
			return &lock.DeadlockError{Txn: tx.ID}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	st := m.Snapshot()
	if st.Retries != 2 || st.Aborted != 2 || st.Committed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunWithRetryGivesUp(t *testing.T) {
	m, _, _ := setup(t)
	m.MaxRetries = 3
	m.RetryBackoff = 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		return &lock.DeadlockError{Txn: tx.ID}
	})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Errorf("err = %v", err)
	}
	if !lock.IsDeadlock(err) {
		t.Error("wrapped deadlock must still be detectable")
	}
}

// Two goroutines in a guaranteed deadlock: retry resolves it and both
// eventually commit their writes exactly once.
func TestRetryResolvesRealDeadlock(t *testing.T) {
	m, st, s := setup(t)
	c1 := s.Class("c1")
	a, _ := st.NewInstance(c1, storage.IntV(0))
	b, _ := st.NewInstance(c1, storage.IntV(0))

	transfer := func(first, second *storage.Instance) func(*Txn) error {
		return func(tx *Txn) error {
			if err := m.Locks().Acquire(tx.ID, lock.InstanceRes(uint64(first.OID)), lock.X); err != nil {
				return err
			}
			tx.Write(first, 0, storage.IntV(first.Get(0).I+1), false)
			if err := m.Locks().Acquire(tx.ID, lock.InstanceRes(uint64(second.OID)), lock.X); err != nil {
				return err
			}
			tx.Write(second, 0, storage.IntV(second.Get(0).I+1), false)
			return nil
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var fn func(*Txn) error
			if i%2 == 0 {
				fn = transfer(a, b)
			} else {
				fn = transfer(b, a)
			}
			if err := m.RunWithRetry(context.Background(), fn); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := a.Get(0).I; got != 8 {
		t.Errorf("a = %d, want 8", got)
	}
	if got := b.Get(0).I; got != 8 {
		t.Errorf("b = %d, want 8", got)
	}
}

// The first retry after a deadlock runs at once, whatever the backoff:
// with an hour-long RetryBackoff, a call whose first attempt is a
// deadlock victim still commits before its deadline, once on a
// synthetic victim notice and once on a real two-transaction cycle.
func TestFirstRetryRunsAtOnce(t *testing.T) {
	for _, mode := range runModes {
		t.Run("synthetic/"+mode.name, func(t *testing.T) {
			m, _, _ := setup(t)
			m.RetryBackoff = time.Hour
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			calls := 0
			err := mode.run(m, ctx, func(tx *Txn) error {
				calls++
				if calls == 1 {
					return &lock.DeadlockError{Txn: tx.ID}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("err = %v, want nil within a second", err)
			}
			if st := m.Snapshot(); calls != 2 || st.Retries != 1 {
				t.Errorf("calls %d retries %d, want 2 and 1", calls, st.Retries)
			}
		})
		t.Run("real/"+mode.name, func(t *testing.T) {
			m, st, s := setup(t)
			m.RetryBackoff = time.Hour
			c1 := s.Class("c1")
			a, _ := st.NewInstance(c1, storage.IntV(0))
			b, _ := st.NewInstance(c1, storage.IntV(0))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			// Each side holds its first lock before either asks for its
			// second, so exactly one cycle forms: on the first attempts
			// only, since the victim's retry must not wait for a partner.
			var held sync.WaitGroup
			held.Add(2)
			transfer := func(first, second *storage.Instance) func(*Txn) error {
				attempt := 0
				return func(tx *Txn) error {
					attempt++
					if _, err := m.Locks().AcquireWaitDone(tx.ID, lock.InstanceRes(uint64(first.OID)), lock.X, tx.Done()); err != nil {
						return err
					}
					tx.Write(first, 0, storage.IntV(first.Get(0).I+1), false)
					if attempt == 1 {
						held.Done()
						held.Wait()
					}
					if _, err := m.Locks().AcquireWaitDone(tx.ID, lock.InstanceRes(uint64(second.OID)), lock.X, tx.Done()); err != nil {
						return err
					}
					tx.Write(second, 0, storage.IntV(second.Get(0).I+1), false)
					return nil
				}
			}
			var wg sync.WaitGroup
			for _, fn := range []func(*Txn) error{transfer(a, b), transfer(b, a)} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := mode.run(m, ctx, fn); err != nil {
						t.Errorf("transfer: %v", err)
					}
				}()
			}
			wg.Wait()
			if a.Get(0).I != 2 || b.Get(0).I != 2 {
				t.Errorf("a = %d, b = %d, want 2 and 2", a.Get(0).I, b.Get(0).I)
			}
			if got := m.Locks().Snapshot().Deadlocks; got != 1 {
				t.Errorf("deadlocks = %d, want 1", got)
			}
			if st := m.Snapshot(); st.Committed != 2 || st.Retries != 1 {
				t.Errorf("committed %d retries %d, want 2 and 1", st.Committed, st.Retries)
			}
		})
	}
}

func TestStateStrings(t *testing.T) {
	if Active.String() != "active" || Committed.String() != "committed" ||
		Aborted.String() != "aborted" || State(9).String() != "state(?)" {
		t.Error("state strings")
	}
}

// Create and delete markers in the undo log: Abort removes a created
// instance and unlinks a deletion marker, interleaved in reverse order
// with slot restores.
func TestAbortTypedCreateDelete(t *testing.T) {
	m, st, s := setup(t)
	c1 := s.Class("c1")
	old, _ := st.NewInstance(c1, storage.IntV(7))

	tx := m.Begin()
	created, marker, err := st.NewUncommitted(uint64(tx.ID), c1, storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	tx.LogCreate(created, marker)
	tx.Write(created, 0, storage.IntV(2), false)
	tx.Write(old, 0, storage.IntV(8), false)
	tx.LogDelete(old, st.MarkDeleted(old, uint64(tx.ID)))
	if old.SnapshotVisible(math.MaxUint64-1, uint64(tx.ID)) {
		t.Error("a deleted instance is visible to its deleter")
	}
	tx.Abort()

	if _, ok := st.Get(created.OID); ok {
		t.Error("created instance survived abort")
	}
	in, ok := st.Get(old.OID)
	if !ok || in.Get(0) != storage.IntV(7) || !in.SnapshotVisible(math.MaxUint64-1, uint64(tx.ID)) {
		t.Error("deleted instance not intact and visible after abort")
	}
	if n := in.VersionCount(); n != 0 {
		t.Errorf("abort left %d records on the deleted instance's chain", n)
	}
}

// A committed delete stamps its marker and removes the instance from
// the store before the commit returns; a delete-only commit draws an
// epoch like any other commit that links a record.
func TestCommitDeleteRemoves(t *testing.T) {
	m, st, s := setup(t)
	in, _ := st.NewInstance(s.Class("c1"), storage.IntV(7))
	before := st.StableEpoch()
	tx := m.Begin()
	tx.LogDelete(in, st.MarkDeleted(in, uint64(tx.ID)))
	if _, ok := st.Get(in.OID); !ok || len(st.Extent("c1")) != 1 {
		t.Fatal("an uncommitted delete removed the instance")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(in.OID); ok || len(st.Extent("c1")) != 0 {
		t.Error("a committed delete left the instance in the store")
	}
	if got := st.StableEpoch(); got != before+1 {
		t.Errorf("stable epoch %d after a delete-only commit, want %d", got, before+1)
	}
	if in.SnapshotVisible(math.MaxUint64-1, 0) {
		t.Error("a committed delete is visible at the live epoch")
	}
}

// Pooled transactions keep working across recycles: RunWithRetry
// reuses the same Txn value, and the recycled undo state never leaks
// between transactions.
func TestPooledTxnReuseIsClean(t *testing.T) {
	m, st, s := setup(t)
	m.MaxRetries = 1 // deadlock errors below are synthetic: no retry
	m.RetryBackoff = 0
	in, _ := st.NewInstance(s.Class("c1"), storage.IntV(0))
	for i := 0; i < 50; i++ {
		commit := i%2 == 0
		err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
			if tx.UndoDepth() != 0 {
				t.Fatalf("iteration %d: recycled txn has %d undo entries", i, tx.UndoDepth())
			}
			tx.Write(in, 0, storage.IntV(int64(i+1)), false)
			if !commit {
				return &lock.DeadlockError{Txn: tx.ID}
			}
			return nil
		})
		if commit && err != nil {
			t.Fatal(err)
		}
	}
	// Even iterations committed i+1, odd ones rolled back to the last
	// committed value: 49 after iteration 48.
	if got := in.Get(0); got != storage.IntV(49) {
		t.Errorf("final value %v, want 49", got)
	}
}

// The backoff RNG is per-manager, seeded and deterministic — two
// managers draw the same jitter sequence without ever touching the
// global math/rand source or a shared mutex.
func TestBackoffRNGDeterministicPerManager(t *testing.T) {
	m1 := NewManager(lock.NewManager())
	m2 := NewManager(lock.NewManager())
	for i := 0; i < 16; i++ {
		if a, b := m1.nextRand(), m2.nextRand(); a != b {
			t.Fatalf("draw %d: %d != %d", i, a, b)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m1.nextRand()
			}
		}()
	}
	wg.Wait()
}

func TestRunWithRetryRetriesTimeout(t *testing.T) {
	m, _, _ := setup(t)
	m.RetryBackoff = 0
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("acquire c1#7: %w", lock.ErrTimeout)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
	st := m.Snapshot()
	if st.Retries != 2 || st.Aborted != 2 || st.Committed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRunWithRetryTimeoutGivesUp(t *testing.T) {
	m, _, _ := setup(t)
	m.MaxRetries = 3
	m.RetryBackoff = 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		return lock.ErrTimeout
	})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Errorf("err = %v", err)
	}
	if !errors.Is(err, lock.ErrTimeout) {
		t.Error("wrapped timeout must still be detectable")
	}
}

// A real lock-wait timeout — not a mocked error — must be retried, and
// the retry must succeed once the blocker releases.
func TestRunWithRetryRealLockTimeout(t *testing.T) {
	m, _, _ := setup(t)
	lm := m.Locks()
	lm.WaitTimeout = time.Millisecond
	m.RetryBackoff = 0
	blocker := m.Begin()
	res := lock.InstanceRes(42)
	if err := lm.Acquire(blocker.ID, res, lock.X); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := m.RunWithRetry(context.Background(), func(tx *Txn) error {
		calls++
		if calls == 2 {
			if err := blocker.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		return lm.Acquire(tx.ID, res, lock.X)
	})
	if err != nil || calls != 2 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

// After the redo log latches fail-stop, the failed commit reports the
// taxonomy (ErrLogFailed / ErrDiskFull), rolls back, and every later
// transaction sees ErrReadOnly from Writable before doing any work.
func TestWritableAfterLogFailStop(t *testing.T) {
	// Count the ops a fresh open issues so the fault can hit the first
	// commit's write exactly.
	_, stRef, _ := setup(t)
	ref := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})
	lRef, _, err := wal.Open(t.TempDir(), stRef, wal.Options{FS: ref})
	if err != nil {
		t.Fatal(err)
	}
	openOps := ref.Ops()
	lRef.Close() //nolint:errcheck

	m, st, s := setup(t)
	fault := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: openOps, Class: wal.FaultENOSPC, Persist: true})
	l, _, err := wal.Open(t.TempDir(), st, wal.Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	m.SetWAL(l)

	in, err := st.NewInstance(s.Class("c1"), storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Write(in, 0, storage.IntV(2), false)
	err = tx.Commit()
	if err == nil {
		t.Fatal("commit over a full disk succeeded")
	}
	if !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, wal.ErrDiskFull) {
		t.Fatalf("commit error lacks taxonomy: %v", err)
	}
	// The write stays in memory, but no snapshot reads it: the log never
	// acknowledged it.
	snap := m.BeginSnapshot()
	if v, ok := in.SnapshotGet(0, snap.SnapshotEpoch()); !ok || v != storage.IntV(1) {
		t.Errorf("snapshot after the failed commit reads %v ok=%t, want 1", v, ok)
	}
	// The log failure outranks the snapshot flag.
	if werr := snap.Writable(); !errors.Is(werr, ErrReadOnly) {
		t.Errorf("snapshot Writable = %v, want ErrReadOnly", werr)
	}
	snap.Commit() //nolint:errcheck // a snapshot commit cannot fail

	tx2 := m.Begin()
	defer tx2.Abort()
	werr := tx2.Writable()
	if !errors.Is(werr, ErrReadOnly) {
		t.Fatalf("Writable = %v, want ErrReadOnly", werr)
	}
	if !errors.Is(werr, wal.ErrDiskFull) {
		t.Errorf("ErrReadOnly must carry the disk-full cause: %v", werr)
	}
}

// TestDeltaUndoEscrowAbort is the escrow regression: many transactions
// deposit into one balance concurrently via commuting delta writes
// (no exclusive locks held across each other), one of them aborts, and
// the final balance must be exactly the sum of the committed deposits.
// Value-undo would be wrong here — restoring a before-image would wipe
// out concurrent deposits that landed after it was captured.
func TestDeltaUndoEscrowAbort(t *testing.T) {
	m, st, s := setup(t)
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(0), storage.BoolV(false))
	if err != nil {
		t.Fatal(err)
	}

	const (
		workers  = 8
		rounds   = 200
		deposit  = 3
		abortAmt = 1000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				add(tx, in, 0, deposit)
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The aborter interleaves with the committers: its deposits are
	// applied, visible to nobody in particular, then exactly undone.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tx := m.Begin()
			add(tx, in, 0, abortAmt)
			add(tx, in, 0, abortAmt) // accumulates, not duplicates
			tx.Abort()
		}
	}()
	wg.Wait()

	want := int64(workers * rounds * deposit)
	if got := in.Get(0).I; got != want {
		t.Errorf("balance after concurrent deposits + aborts = %d, want %d", got, want)
	}
}

// TestDeltaUndoSubsumedByValueUndo: once a slot has a value before-image
// in the undo log, later deltas on the same slot are subsumed — abort
// restores the image, which already covers everything after it.
func TestDeltaUndoSubsumedByValueUndo(t *testing.T) {
	m, st, s := setup(t)
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(10), storage.BoolV(false))
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin()
	tx.Write(in, 0, storage.IntV(50), false)
	add(tx, in, 0, 7)
	if tx.UndoDepth() != 1 {
		t.Errorf("undo depth = %d, want 1 (delta subsumed by value entry)", tx.UndoDepth())
	}
	tx.Abort()
	if got := in.Get(0).I; got != 10 {
		t.Errorf("after abort = %d, want 10", got)
	}

	// And the reverse order: delta first, then a full overwrite. The
	// overwrite's before-image includes the delta's effect, so restore
	// alone would double-undo — the delta entry must convert/skip
	// correctly. Expected final: original value.
	tx2 := m.Begin()
	add(tx2, in, 0, 5) // balance 15
	tx2.Write(in, 0, storage.IntV(99), false)
	tx2.Abort()
	if got := in.Get(0).I; got != 10 {
		t.Errorf("after delta-then-set abort = %d, want 10", got)
	}
}

// TestSnapshotExcludesConcurrentUncommittedSlot: under field-granularity
// locking two transactions may write disjoint slots of one instance
// concurrently. A snapshot begun after the first commits reads that
// transaction's slot and rolls the other's back — while the second is
// in flight, and after it aborts.
func TestSnapshotExcludesConcurrentUncommittedSlot(t *testing.T) {
	m, st, s := setup(t)
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(1), storage.BoolV(false))
	if err != nil {
		t.Fatal(err)
	}

	// T2 writes slot 1 and is still in flight when T1 commits slot 0.
	t2 := m.Begin()
	t2.Write(in, 1, storage.BoolV(true), false)

	t1 := m.Begin()
	t1.Write(in, 0, storage.IntV(42), false)
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		b := st.StableEpoch()
		if v, ok := in.SnapshotGet(0, b); !ok || v.I != 42 {
			t.Fatalf("%s: committed slot 0 = %v ok=%t, want 42", when, v, ok)
		}
		if v, ok := in.SnapshotGet(1, b); !ok || v.B {
			t.Fatalf("%s: slot 1 = %v ok=%t: a concurrent uncommitted write leaked into the snapshot", when, v, ok)
		}
	}
	check("T2 in flight")
	t2.Abort()
	check("T2 aborted")
	if got := in.Get(1); got != storage.BoolV(false) {
		t.Errorf("live slot 1 after abort = %v, want false", got)
	}
}

// TestEscrowCommitTurnstileNoDeadlock: no holder of a commit epoch may
// wait on another transaction. A commit that blocked on an instance's
// execution latch while holding epoch e would deadlock against a latch
// holder spinning in the turnstile for e to retire. With a redo log
// attached, concurrent commuting committers and aborters on one
// instance, their escrow writes latched as the engine's frames latch
// them, drive every commit and rollback path past that turnstile. It is
// a stress test of the path, not a deterministic regression trap.
func TestEscrowCommitTurnstileNoDeadlock(t *testing.T) {
	m, st, s := setup(t)
	l, _, err := wal.Open(t.TempDir(), st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	m.SetWAL(l)

	// Each worker also writes a private instance, so commits and
	// rollbacks span two instances. Every fourth round aborts instead of
	// committing, rolling its deltas back, one latch at a time, beside
	// the committers.
	const (
		workers = 8
		rounds  = 200
	)
	priv := make([]*storage.Instance, workers)
	for w := range priv {
		p, err := st.NewInstance(s.Class("c1"), storage.IntV(0), storage.BoolV(false))
		if err != nil {
			t.Fatal(err)
		}
		priv[w] = p
	}
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(0), storage.BoolV(false))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *storage.Instance) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tx := m.Begin()
				add(tx, p, 0, 1)
				add(tx, in, 0, 1)
				if i%4 == 3 {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}(priv[w])
	}
	wg.Wait()

	want := int64(workers * (rounds - rounds/4))
	if got := in.Get(0).I; got != want {
		t.Errorf("balance = %d, want %d", got, want)
	}
	if v, ok := in.SnapshotGet(0, st.StableEpoch()); !ok || v.I != want {
		t.Errorf("snapshot balance = %v ok=%t, want %d", v, ok, want)
	}
}

// TestCommitTakesNoExecLatch: an instance's execution latch belongs to
// the engine's escrow frames and to the rollback of a delta, nothing
// else. While a frame holds it, a transaction that wrote a delta there
// commits at once, and one that aborts a delta there waits: its
// subtraction would race the frame's read-modify-write of the cell.
func TestCommitTakesNoExecLatch(t *testing.T) {
	m, st, s := setup(t)
	l, _, err := wal.Open(t.TempDir(), st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	m.SetWAL(l)
	in, err := st.NewInstance(s.Class("c1"), storage.IntV(10), storage.BoolV(false))
	if err != nil {
		t.Fatal(err)
	}
	committer, aborter := m.Begin(), m.Begin()
	add(committer, in, 0, 5)
	add(aborter, in, 0, 7)

	in.LockExec() // a running escrow frame on in
	committed := make(chan error, 1)
	go func() { committed <- committer.Commit() }()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		in.UnlockExec()
		t.Fatal("commit waited on the execution latch")
	}
	aborted := make(chan struct{})
	go func() { aborter.Abort(); close(aborted) }()
	select {
	case <-aborted:
		in.UnlockExec()
		t.Fatal("abort subtracted its delta without the execution latch")
	case <-time.After(50 * time.Millisecond):
	}
	in.UnlockExec()
	<-aborted
	if got := in.Get(0).I; got != 15 {
		t.Errorf("balance = %d, want 15 (the committed delta only)", got)
	}
}
