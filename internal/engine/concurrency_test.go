package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// openBanking opens the banking test schema under fine CC, deposit/deposit
// declared commuting, with the given durability options.
func openBanking(t *testing.T, o Options) *DB {
	t.Helper()
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	c, err := core.CompileSource(loadSchema(t, "banking"), core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	o.Strategy = FineCC{}
	db, err := OpenWithOptions(c, o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// accountClasses are the concrete banking classes; populate gives the
// i-th instance class accountClasses[i%2].
var accountClasses = []string{"savings", "checking"}

// populate creates n accounts, alternating savings and checking, in one
// transaction.
func populate(t *testing.T, db *DB, n int) []storage.OID {
	t.Helper()
	oids := make([]storage.OID, 0, n)
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < n; i++ {
			in, err := db.NewInstance(tx, accountClasses[i%len(accountClasses)])
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return oids
}

// waitWorkers waits for wg, failing the test if the workers hang.
func waitWorkers(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workers still running after 60 s")
	}
}

// A disk that fills up under several concurrent durable writers: every
// worker stops with a typed disk-full fail-stop error, and nothing
// hangs or panics.
func TestFailStopConcurrentDiskFull(t *testing.T) {
	const (
		workers = 4
		objects = 32
		maxTxns = 1000 // per worker; far past the fault
	)
	fs := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})
	ref := openBanking(t, Options{Durable: true, Dir: t.TempDir(), FS: fs})
	populate(t, ref, objects)
	afterSetup := fs.Ops()
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// Setup is single-threaded, so its op count is the same on every
	// run: the fault lands a few group commits into the workers' phase.
	fs = wal.NewFaultFS(nil, wal.FaultPlan{FailAt: afterSetup + 20, Class: wal.FaultENOSPC, Persist: true})
	db := openBanking(t, Options{Durable: true, Dir: t.TempDir(), FS: fs})
	defer db.Close() //nolint:errcheck // a latched log reports its failure here
	oids := populate(t, db, objects)
	if got := fs.Ops(); got != afterSetup {
		t.Fatalf("setup issued %d filesystem ops, the reference run %d", got, afterSetup)
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < maxTxns; i++ {
				oid := oids[(w*7+i)%len(oids)]
				if err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.Send(tx, oid, "deposit", storage.IntV(1))
					return err
				}); err != nil {
					errs[w] = err
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	waitWorkers(t, &wg)
	for w, err := range errs {
		switch {
		case err == nil:
			t.Errorf("worker %d committed %d deposits on a full disk", w, maxTxns)
		case !errors.Is(err, wal.ErrLogFailed) || !errors.Is(err, wal.ErrDiskFull):
			t.Errorf("worker %d: error is not a typed disk-full fail-stop: %v", w, err)
		}
	}
}

// Concurrent create+delete churn of worker-private instances beside
// deposits to a shared population never touches the shared instances,
// and every class extent holds exactly the instances that should be
// alive. Durable, the same holds after a reopen, which recovers the
// store at close byte for byte.
func TestTortureChurnPreservesPopulation(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			o := Options{Durable: durable}
			if durable {
				o.Dir = t.TempDir()
			}
			db := openBanking(t, o)
			shared := populate(t, db, 32)
			alive, dead := churnStorm(t, db, shared)
			checkPopulation(t, db, alive, dead)
			if !durable {
				return
			}
			want := dbImage(db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re := openBanking(t, o)
			defer re.Close()
			checkPopulation(t, re, alive, dead)
			if got := dbImage(re); !reflect.DeepEqual(got, want) {
				t.Errorf("reopened store differs from the store at close")
			}
		})
	}
}

// churnStorm runs the churn workers over db and returns every OID that
// must be alive (the shared ones and each worker's final pool) and every
// OID a worker deleted.
func churnStorm(t *testing.T, db *DB, shared []storage.OID) (alive, dead []storage.OID) {
	t.Helper()
	const (
		workers  = 4
		poolSize = 8
		txns     = 60 // per worker; one in four is a churn
	)
	pools := make([][]storage.OID, workers)
	deleted := make([][]storage.OID, workers)
	for w := range pools {
		pools[w] = populate(t, db, poolSize)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			pool := pools[w]
			for i := 0; i < txns; i++ {
				var err error
				if i%4 == 3 {
					// Replace one private instance by a new one of the
					// same class, so the extents' counts stay fixed.
					slot := rng.Intn(len(pool))
					victim := pool[slot]
					var created storage.OID
					err = db.RunWithRetry(func(tx *txn.Txn) error {
						in, err := db.NewInstance(tx, accountClasses[slot%len(accountClasses)])
						if err != nil {
							return err
						}
						created = in.OID
						return db.DeleteInstance(tx, victim)
					})
					if err == nil {
						pool[slot] = created
						deleted[w] = append(deleted[w], victim)
					}
				} else {
					oid := shared[rng.Intn(len(shared))]
					err = db.RunWithRetry(func(tx *txn.Txn) error {
						_, err := db.Send(tx, oid, "deposit", storage.IntV(1))
						return err
					})
				}
				if err != nil {
					errs[w] = err
					return
				}
				runtime.Gosched()
			}
		}(w)
	}
	waitWorkers(t, &wg)
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	alive = append(alive, shared...)
	for w := range pools {
		alive = append(alive, pools[w]...)
		dead = append(dead, deleted[w]...)
	}
	return alive, dead
}

// checkPopulation requires exactly the alive OIDs in the store, each in
// its class's extent.
func checkPopulation(t *testing.T, db *DB, alive, dead []storage.OID) {
	t.Helper()
	classOf := map[storage.OID]string{}
	want := map[string]int{}
	for _, oid := range alive {
		in, ok := db.Store.Get(oid)
		if !ok {
			t.Fatalf("instance %d is gone", oid)
		}
		classOf[oid] = in.Class.Name
		want[in.Class.Name]++
	}
	for _, oid := range dead {
		if _, ok := db.Store.Get(oid); ok {
			t.Errorf("deleted instance %d is still in the store", oid)
		}
	}
	for _, cls := range db.Compiled.Schema.Order {
		ext := db.Store.ExtentOf(cls)
		if len(ext) != want[cls.Name] {
			t.Errorf("extent of %s holds %d instances, want %d", cls.Name, len(ext), want[cls.Name])
		}
		for _, oid := range ext {
			if classOf[oid] != cls.Name {
				t.Errorf("extent of %s holds %d, which is not a live %s", cls.Name, oid, cls.Name)
			}
		}
	}
}
