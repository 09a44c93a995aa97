package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The flight-recorder proof obligations: an armed recorder captures
// slow transactions with their typed event traces — begin, lock waits
// naming the contended resource, commit epoch, fsync wait — and a
// disarmed recorder captures nothing and costs the fast path nothing.

func eventKinds(st obs.SlowTxn) map[obs.EventKind][]obs.Event {
	out := map[obs.EventKind][]obs.Event{}
	for _, e := range st.Events {
		out[e.Kind] = append(out[e.Kind], e)
	}
	return out
}

func TestFlightRecorderDisarmedByDefault(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid := seedOne(t, db)
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		_, err := db.Send(tx, oid, "m1", storage.IntV(1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got := db.SlowTxns(); len(got) != 0 {
		t.Fatalf("disarmed recorder captured %d txns", len(got))
	}
}

func seedOne(t *testing.T, db *DB) storage.OID {
	t.Helper()
	var oid storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "c2", storage.IntV(1), storage.BoolV(false))
		oid = in.OID
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return oid
}

// TestFlightRecorderCapturesLockWait stalls one writer behind another
// and checks the victim's trace names the wait and the resource.
func TestFlightRecorderCapturesLockWait(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid := seedOne(t, db)
	db.SetSlowTxnThreshold(time.Nanosecond) // capture everything

	holder := db.Begin()
	if _, err := db.Send(holder, oid, "m1", storage.IntV(1)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := db.RunWithRetry(func(tx *txn.Txn) error {
			_, err := db.Send(tx, oid, "m1", storage.IntV(3))
			return err
		}); err != nil {
			t.Errorf("blocked writer: %v", err)
		}
	}()
	// Let the second writer reach the lock queue, then release it.
	time.Sleep(50 * time.Millisecond)
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var waited *obs.Event
	for _, st := range db.SlowTxns() {
		ks := eventKinds(st)
		if len(ks[obs.EvBegin]) != 1 {
			t.Errorf("txn %d: %d begin events", st.TxnID, len(ks[obs.EvBegin]))
		}
		if evs := ks[obs.EvLockWait]; len(evs) > 0 {
			waited = &evs[0]
		}
	}
	if waited == nil {
		t.Fatal("no captured trace has a lock-wait event")
	}
	if waited.Dur <= 0 {
		t.Errorf("lock wait duration %v, want > 0", waited.Dur)
	}
	if waited.Arg != uint64(oid) {
		t.Errorf("lock wait resource %d, want %d", waited.Arg, oid)
	}
}

// TestFlightRecorderCapturesCommitAndFsync runs a durable transaction
// under a tiny threshold and checks the trace carries the commit epoch
// its writes were stamped with and the group-commit fsync wait — for an
// uncancellable caller (which waits holding its locks) and for a
// cancellable one (which waits after releasing them) alike.
func TestFlightRecorderCapturesCommitAndFsync(t *testing.T) {
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"cancelable", cancelable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.CompileSource(paperex.Figure1)
			if err != nil {
				t.Fatal(err)
			}
			db, err := OpenWithOptions(c, Options{
				Strategy: FineCC{},
				Durable:  true,
				Dir:      t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.SetSlowTxnThreshold(time.Nanosecond)
			oid := seedOne(t, db)
			if err := db.Txns.RunWithRetry(tc.ctx, func(tx *txn.Txn) error {
				_, err := db.Send(tx, oid, "m1", storage.IntV(1))
				return err
			}); err != nil {
				t.Fatal(err)
			}

			slow := db.SlowTxns()
			if len(slow) == 0 {
				t.Fatal("no transactions captured")
			}
			// Newest first: slow[0] is the m1 update (seedOne came before it).
			ks := eventKinds(slow[0])
			commits := ks[obs.EvCommit]
			if len(commits) != 1 {
				t.Fatalf("commit events = %v", slow[0].Events)
			}
			if commits[0].Arg == 0 {
				t.Error("commit event carries epoch 0")
			}
			// The traced epoch is the one the writes carry: a snapshot
			// at it reads the live values.
			in, ok := db.Store.Get(oid)
			if !ok {
				t.Fatal("updated instance missing")
			}
			for i := 0; i < in.Class.NumSlots(); i++ {
				if v, ok := in.SnapshotGet(i, commits[0].Arg); !ok || v != in.Get(i) {
					t.Errorf("slot %d at the traced epoch %d reads %v ok=%t, live %v", i, commits[0].Arg, v, ok, in.Get(i))
				}
			}
			if len(ks[obs.EvFsyncWait]) != 1 {
				t.Errorf("fsync-wait events = %v", slow[0].Events)
			}
			if len(ks[obs.EvAbort]) != 0 {
				t.Errorf("committed txn has abort events: %v", slow[0].Events)
			}
		})
	}
}

// TestFlightRecorderAbortReason aborts a transaction explicitly and
// checks the trace tags it with the generic abort reason.
func TestFlightRecorderAbortReason(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid := seedOne(t, db)
	db.SetSlowTxnThreshold(time.Nanosecond)

	tx := db.Begin()
	if _, err := db.Send(tx, oid, "m1", storage.IntV(1)); err != nil {
		t.Fatal(err)
	}
	tx.Abort()

	slow := db.SlowTxns()
	if len(slow) == 0 {
		t.Fatal("aborted txn not captured")
	}
	aborts := eventKinds(slow[0])[obs.EvAbort]
	if len(aborts) != 1 || aborts[0].Arg != obs.AbortOther {
		t.Errorf("abort events = %v", slow[0].Events)
	}
}

// TestFlightRecorderRearm checks run-time disarm drops capture again.
func TestFlightRecorderRearm(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid := seedOne(t, db)
	db.SetSlowTxnThreshold(time.Nanosecond)
	run := func() {
		if err := db.RunWithRetry(func(tx *txn.Txn) error {
			_, err := db.Send(tx, oid, "m1", storage.IntV(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := db.Flight().Captured()
	if before == 0 {
		t.Fatal("armed recorder captured nothing")
	}
	db.SetSlowTxnThreshold(0)
	run()
	if got := db.Flight().Captured(); got != before {
		t.Errorf("disarmed recorder still capturing: %d -> %d", before, got)
	}
}
