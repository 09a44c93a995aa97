package oodb

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
)

// parkedIn reports whether some goroutine is parked with the runtime
// wait reason reason somewhere inside the function fn.
func parkedIn(reason, fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("["+reason)) && bytes.Contains(g, []byte(fn)) {
			return true
		}
	}
	return false
}

// waitParked waits until parkedIn(reason, fn) holds.
func waitParked(t *testing.T, reason, fn, what string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !parkedIn(reason, fn); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// recv returns what ch delivers, failing the test if nothing comes.
func recv(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
		return nil
	}
}

// goErr runs fn on its own goroutine and delivers its error.
func goErr(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

// TestRecoveryCheckpointCutLiveness: a checkpoint cuts the log under
// the sequencing mutex, and nothing deadlocks on that.
func TestRecoveryCheckpointCutLiveness(t *testing.T) {
	// A blocking durable commit parked in its fsync holds nothing, but
	// the checkpoint's seal queues behind it: the checkpoint waits for
	// the seal holding the sequencing mutex, and a commit begun meanwhile
	// waits for the checkpoint. Once the disk moves all three finish:
	// the first commit inside the checkpoint, the second in the tail
	// after it.
	t.Run("parked commit", func(t *testing.T) {
		dir := t.TempDir()
		fs := newGateFS()
		db, acct := ctxAccountDB(t, Options{Dir: dir, fs: fs})
		fs.armed.Store(true)
		first := goErr(func() error {
			return db.Update(func(tx *Txn) error {
				_, err := tx.Send(acct, "deposit", int64(1))
				return err
			})
		})
		waitParked(t, "chan receive", "oodb.(*gateFile).Sync", "the first commit's fsync to park")
		ckpt := goErr(db.Checkpoint)
		waitParked(t, "chan receive", "wal.(*Log).Checkpoint", "the checkpoint to wait for the parked commit")
		var created OID
		second := goErr(func() error {
			return db.Update(func(tx *Txn) error {
				var err error
				created, err = tx.New("account", int64(7))
				return err
			})
		})
		waitParked(t, "sync.Mutex.Lock", "wal.(*commit).enqueue", "a commit begun during the cut to wait for it")
		select {
		case <-first:
			t.Fatal("the parked commit finished before its fsync")
		case <-ckpt:
			t.Fatal("the checkpoint finished before the parked commit retired")
		default:
		}
		close(fs.gate)
		for _, c := range []struct {
			ch   <-chan error
			what string
		}{{first, "the parked commit"}, {ckpt, "the checkpoint"}, {second, "the commit begun during the cut"}} {
			if err := recv(t, c.ch, c.what); err != nil {
				t.Fatalf("%s: %v", c.what, err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := Compile(ctxAccountSchema)
		if err != nil {
			t.Fatal(err)
		}
		re, err := OpenWith(s, Fine, Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if rs := re.Recovery(); !rs.Checkpoint || rs.RecordsApplied != 1 {
			t.Errorf("recovery %+v, want the checkpoint and one record after it", rs)
		}
		for oid, want := range map[OID]int64{acct: 101, created: 7} {
			if err := re.View(func(tx *Txn) error {
				got, err := tx.Send(oid, "getbalance")
				if err == nil && got != want {
					t.Errorf("account %d: balance %v, want %d", oid, got, want)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	})

	// Close races the auto-checkpoint a 1-byte threshold starts after
	// every batch; it returns, and every committer stops on ErrClosed.
	t.Run("close vs auto checkpoint", func(t *testing.T) {
		db, acct := ctxAccountDB(t, Options{Dir: t.TempDir(), CheckpointEveryBytes: 1})
		const workers = 4
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if _, err := db.UpdateAsync(func(tx *Txn) error {
						_, err := tx.Send(acct, "getbalance")
						if err == nil {
							_, err = tx.New("account", int64(1))
						}
						return err
					}); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		for deadline := time.Now().Add(10 * time.Second); db.Stats().WALCheckpoints < 3; {
			if time.Now().After(deadline) {
				t.Fatal("no auto-checkpoints under load")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := recv(t, goErr(db.Close), "Close"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if !errors.Is(err, wal.ErrClosed) {
				t.Errorf("committer stopped on %v, want ErrClosed", err)
			}
		}
	})
}
