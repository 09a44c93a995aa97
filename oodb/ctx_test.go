package oodb

import (
	"context"
	"errors"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
)

const ctxAccountSchema = `
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method getbalance is
        return balance
    end
end`

func ctxAccountDB(t *testing.T, o Options) (*Database, OID) {
	t.Helper()
	s, err := Compile(ctxAccountSchema)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(s, Fine, o)
	if err != nil {
		t.Fatal(err)
	}
	var acct OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		acct, err = tx.New("account", int64(100))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return db, acct
}

// A View whose fn fails is an aborted transaction, not a committed one.
func TestViewErrorCountsAsAborted(t *testing.T) {
	db, acct := ctxAccountDB(t, Options{})
	before := db.Stats()
	boom := errors.New("boom")
	err := db.View(func(tx *Txn) error {
		if _, err := tx.Send(acct, "getbalance"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("View returned %v", err)
	}
	after := db.Stats()
	if c, a := after.Committed-before.Committed, after.Aborted-before.Aborted; c != 0 || a != 1 {
		t.Errorf("failed View counted committed %+d aborted %+d, want +0 and +1", c, a)
	}
	if err := db.View(func(tx *Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := db.Stats().Committed - after.Committed; c != 1 {
		t.Errorf("clean View counted committed %+d, want +1", c)
	}
}

// UpdateCtx under a deadline that expires while the transaction is
// queued on a lock: the attempt rolls back and the error satisfies
// IsCanceled and wraps the context's own error.
func TestUpdateCtxCanceledInLockWait(t *testing.T) {
	db, acct := ctxAccountDB(t, Options{})
	holder := db.Begin()
	if _, err := holder.Send(acct, "deposit", int64(1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := db.UpdateCtx(ctx, func(tx *Txn) error {
		_, err := tx.Send(acct, "deposit", int64(1000))
		return err
	})
	if !IsCanceled(err) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want IsCanceled wrapping DeadlineExceeded", err)
	}
	if IsUnackedCommit(err) {
		t.Error("a canceled lock wait reported an unacked commit")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *Txn) error {
		got, err := tx.Send(acct, "getbalance")
		if got != int64(101) {
			t.Errorf("balance = %v, want 101 (the canceled deposit rolled back)", got)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// gateFS is a slow disk: once armed, every file Sync parks until the
// gate opens (is closed).
type gateFS struct {
	wal.FS
	armed atomic.Bool
	gate  chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1}), gate: make(chan struct{})}
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
		<-f.g.gate
	}
	return f.File.Sync()
}

// Future.WaitCtx: an acknowledged commit resolves nil under a live
// context; a cancellation while the group commit's fsync is parked
// abandons only the wait — the commit is applied, reported as unacked,
// read by a View once the log acknowledges it, and durable.
func TestFutureWaitCtxCancelVsAck(t *testing.T) {
	t.Run("ack", func(t *testing.T) {
		db, acct := ctxAccountDB(t, Options{Dir: t.TempDir()})
		defer db.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fut, err := db.UpdateAsyncCtx(ctx, func(tx *Txn) error {
			_, err := tx.Send(acct, "deposit", int64(5))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.WaitCtx(ctx); err != nil {
			t.Fatalf("WaitCtx on an acknowledged commit: %v", err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		// The lone commit below stays sequenced but unhardened while its
		// fsync is parked on the gate.
		dir := t.TempDir()
		fs := newGateFS()
		db, acct := ctxAccountDB(t, Options{Dir: dir, fs: fs})
		fs.armed.Store(true)
		fut, err := db.UpdateAsync(func(tx *Txn) error {
			_, err := tx.Send(acct, "deposit", int64(5))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		err = fut.WaitCtx(ctx)
		if !IsUnackedCommit(err) || !IsCanceled(err) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("WaitCtx = %v, want an unacked-commit cancellation wrapping DeadlineExceeded", err)
		}
		balance := func(db *Database) (got any) {
			if err := db.View(func(tx *Txn) error {
				var err error
				got, err = tx.Send(acct, "getbalance")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		if got := balance(db); got != int64(100) {
			t.Errorf("balance = %v while the commit is unacknowledged, want 100", got)
		}
		close(fs.gate)
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := balance(db); got != int64(105) {
			t.Errorf("balance = %v once the log drained, want 105 (commit applied)", got)
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
		if got := balance(re); got != int64(105) {
			t.Errorf("recovered balance = %v, want 105", got)
		}
	})
}
