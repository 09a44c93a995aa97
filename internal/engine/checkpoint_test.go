package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// noSyncFS is the real disk with every fsync a no-op: nothing here
// crashes, and a log whose seal costs no fsync leaves a commit the
// least time to retire its epoch before a checkpoint's snapshot.
type noSyncFS struct{ wal.FS }

func (fs noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ wal.File }

func (noSyncFile) Sync() error { return nil }

// TestRecoveryCheckpointCutExactlyOnce takes checkpoints in a loop
// beside concurrent escrow deposits, transfers (a debit and a credit
// deposit in one transaction), creates and deletes, committed blocking,
// pipelined and cancellable. A delta is not idempotent: a commit whose
// record a checkpoint also absorbed, or one that neither the checkpoint
// nor the replayed tail holds, shows up as a counter off by its
// deposits. After a close and a recovery every counter equals its
// acknowledged deposits exactly, every deleted instance is absent and
// every surviving creation present, and the recovered store equals the
// one at close.
func TestRecoveryCheckpointCutExactlyOnce(t *testing.T) {
	const (
		counters = 8
		workers  = 16
		txns     = 300 // per worker
	)
	o := Options{Durable: true, Dir: t.TempDir(), FS: noSyncFS{wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})}}
	db := openBanking(t, o)
	shared := populate(t, db, counters)

	type tally struct {
		deposits map[storage.OID]int64
		alive    []storage.OID // the worker's creations still standing
		dead     []storage.OID
	}
	tallies := make([]tally, workers)
	commit := func(mode int, fn func(*txn.Txn) error) error {
		switch mode {
		case 0: // blocking: publishes after its fsync
			return db.RunWithRetry(fn)
		case 1: // pipelined: publishes at sequencing
			fut, err := db.RunWithRetryPipelined(fn)
			if err != nil {
				return err
			}
			return fut.Wait()
		default: // cancellable: publishes, then waits bounded by ctx
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return db.Txns.RunWithRetry(ctx, fn)
		}
	}

	stop := make(chan struct{})
	ckpts := make(chan error, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				if n == 0 {
					ckpts <- fmt.Errorf("no checkpoint completed during the load")
					return
				}
				t.Logf("%d checkpoints during the load", n)
				ckpts <- nil
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				ckpts <- err
				return
			}
			n++
		}
	}()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			tl := &tallies[w]
			tl.deposits = map[storage.OID]int64{}
			for i := 0; i < txns && errs[w] == nil; i++ {
				mode := (w + i) % 3
				switch i % 4 {
				case 0, 1: // deposit
					oid, n := shared[rng.Intn(counters)], int64(1+rng.Intn(9))
					errs[w] = commit(mode, func(tx *txn.Txn) error {
						_, err := db.Send(tx, oid, "deposit", storage.IntV(n))
						return err
					})
					if errs[w] == nil {
						tl.deposits[oid] += n
					}
				case 2: // transfer
					from, to, n := shared[rng.Intn(counters)], shared[rng.Intn(counters)], int64(1+rng.Intn(9))
					errs[w] = commit(mode, func(tx *txn.Txn) error {
						if _, err := db.Send(tx, from, "deposit", storage.IntV(-n)); err != nil {
							return err
						}
						_, err := db.Send(tx, to, "deposit", storage.IntV(n))
						return err
					})
					if errs[w] == nil {
						tl.deposits[from] -= n
						tl.deposits[to] += n
					}
				default: // create one instance, delete the worker's oldest
					var created storage.OID
					var victim storage.OID
					if len(tl.alive) > 2 {
						victim = tl.alive[0]
					}
					errs[w] = commit(mode, func(tx *txn.Txn) error {
						in, err := db.NewInstance(tx, accountClasses[i%len(accountClasses)],
							storage.IntV(int64(i)), storage.StrV(fmt.Sprintf("w%d", w)))
						if err != nil {
							return err
						}
						created = in.OID
						if victim == 0 {
							return nil
						}
						return db.DeleteInstance(tx, victim)
					})
					if errs[w] == nil {
						tl.alive = append(tl.alive, created)
						if victim != 0 {
							tl.alive = tl.alive[1:]
							tl.dead = append(tl.dead, victim)
						}
					}
				}
			}
		}(w)
	}
	waitWorkers(t, &wg)
	close(stop)
	if err := <-ckpts; err != nil {
		t.Fatal(err)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	want := map[storage.OID]int64{}
	var alive, dead []storage.OID
	for _, tl := range tallies {
		for oid, n := range tl.deposits {
			want[oid] += n
		}
		alive = append(alive, tl.alive...)
		dead = append(dead, tl.dead...)
	}
	balance := db.Compiled.Schema.Class("account").Slot(db.Compiled.Schema.Class("account").FieldByName("balance").ID)
	check := func(db *DB, when string) {
		t.Helper()
		for _, oid := range shared {
			in, ok := db.Store.Get(oid)
			if !ok {
				t.Fatalf("%s: counter %d is gone", when, oid)
			}
			if got := in.Get(balance).I; got != want[oid] {
				t.Errorf("%s: counter %d = %d, acknowledged deposits sum to %d", when, oid, got, want[oid])
			}
		}
		for _, oid := range alive {
			if _, ok := db.Store.Get(oid); !ok {
				t.Errorf("%s: created instance %d is absent", when, oid)
			}
		}
		for _, oid := range dead {
			if _, ok := db.Store.Get(oid); ok {
				t.Errorf("%s: deleted instance %d is present", when, oid)
			}
		}
	}
	check(db, "live")
	live := dbImage(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	o.FS = nil
	re := openBanking(t, o)
	defer re.Close()
	if !re.Recovery().Checkpoint {
		t.Fatalf("recovery loaded no checkpoint: %+v", re.Recovery())
	}
	check(re, "recovered")
	if got := dbImage(re); !reflect.DeepEqual(got, live) {
		t.Error("recovered store differs from the store at close")
	}
}
