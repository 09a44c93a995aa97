package lock

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// A canceled wait withdraws its waiter: nothing is held, and the queue
// carries no ghost for the next requester to line up behind.
func TestAcquireWaitDoneCancelWithdraws(t *testing.T) {
	m := NewManager()
	m.WaitTimeout = 5 * time.Second // a ghost waiter fails the test instead of hanging it
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, X))
	done := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := m.AcquireWaitDone(2, res, X, done)
		errc <- err
	}()
	for m.Snapshot().Blocks == 0 {
		runtime.Gosched()
	}
	close(done)
	if err := <-errc; !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if n := m.LocksHeld(2); n != 0 {
		t.Errorf("canceled waiter holds %d locks", n)
	}
	if m.Snapshot().Timeouts != 0 {
		t.Error("a cancellation was counted as a timeout")
	}
	m.ReleaseAll(1)
	mustGrant(t, m.Acquire(3, res, X))
}

// The grant-vs-withdraw race: the holder releases at the same moment the
// waiter's done channel fires. Whichever wins, the outcome is one of
// exactly two — the lock is held and no error is returned, or the error
// is returned and nothing is held — and the lock table stays usable.
func TestAcquireWaitDoneGrantVsWithdrawRace(t *testing.T) {
	m := NewManager()
	m.WaitTimeout = 5 * time.Second
	res := InstanceRes(7)
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	granted, canceled := 0, 0
	for i := 0; i < rounds; i++ {
		holder, waiter := TxnID(2*i+1), TxnID(2*i+2)
		mustGrant(t, m.Acquire(holder, res, X))
		blocks := m.Snapshot().Blocks
		done := make(chan struct{})
		errc := make(chan error, 1)
		go func() {
			_, err := m.AcquireWaitDone(waiter, res, X, done)
			errc <- err
		}()
		for m.Snapshot().Blocks == blocks {
			runtime.Gosched()
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; m.ReleaseAll(holder) }()
		go func() { defer wg.Done(); <-start; close(done) }()
		close(start)
		err := <-errc
		wg.Wait()
		held, n := m.Holds(waiter, res, X), m.LocksHeld(waiter)
		switch {
		case err == nil:
			granted++
			if !held || n != 1 {
				t.Fatalf("round %d: granted, but Holds=%v LocksHeld=%d", i, held, n)
			}
		case errors.Is(err, ErrCanceled):
			canceled++
			if held || n != 0 {
				t.Fatalf("round %d: canceled, but Holds=%v LocksHeld=%d", i, held, n)
			}
		default:
			t.Fatalf("round %d: unexpected error %v", i, err)
		}
		m.ReleaseAll(waiter)
	}
	t.Logf("%d rounds: %d granted, %d canceled", rounds, granted, canceled)
	mustGrant(t, m.Acquire(TxnID(2*rounds+1), res, X))
}
