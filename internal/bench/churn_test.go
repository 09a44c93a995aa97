package bench

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Whole-engine runs of the banking application schema: workers deposit
// into a shared population of accounts and, in the churn mix, replace
// worker-private accounts by create+delete.

const (
	churnShared  = 32
	churnPool    = 4
	churnWorkers = 2
)

func openBankingDB(t *testing.T, o engine.Options) *engine.DB {
	t.Helper()
	src, commuting, err := workload.AppSchema("banking")
	if err != nil {
		t.Fatal(err)
	}
	ov := core.NewOverrides()
	for _, d := range commuting {
		ov.Declare(d[0], d[1], d[2])
	}
	c, err := core.CompileSource(src, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	o.Strategy = engine.FineCC{}
	db, err := engine.OpenWithOptions(c, o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newAccounts(t *testing.T, db *engine.DB, n int) []storage.OID {
	t.Helper()
	oids := make([]storage.OID, 0, n)
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < n; i++ {
			in, err := db.NewInstance(tx, "savings")
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

// runBanking runs ops transactions per worker over db; with churn, every
// fourth one replaces a worker-private account instead of depositing.
// It returns the number of committed deposits.
func runBanking(t *testing.T, db *engine.DB, shared []storage.OID, ops int, churn bool) int64 {
	t.Helper()
	var (
		wg       sync.WaitGroup
		deposits = make([]int64, churnWorkers)
		errs     = make([]error, churnWorkers)
	)
	for w := 0; w < churnWorkers; w++ {
		pool := newAccounts(t, db, churnPool)
		wg.Add(1)
		go func(w int, pool []storage.OID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < ops; i++ {
				if churn && i%4 == 3 {
					slot := rng.Intn(len(pool))
					var created storage.OID
					errs[w] = db.RunWithRetry(func(tx *txn.Txn) error {
						in, err := db.NewInstance(tx, "savings")
						if err != nil {
							return err
						}
						created = in.OID
						return db.DeleteInstance(tx, pool[slot])
					})
					pool[slot] = created
				} else {
					oid := shared[rng.Intn(len(shared))]
					errs[w] = db.RunWithRetry(func(tx *txn.Txn) error {
						_, err := db.Send(tx, oid, "deposit", storage.IntV(1))
						return err
					})
					deposits[w]++
				}
				if errs[w] != nil {
					return
				}
			}
		}(w, pool)
	}
	wg.Wait()
	var total int64
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		total += deposits[w]
	}
	return total
}

// sharedBalance requires every shared account to exist and returns the
// sum of their balances.
func sharedBalance(t *testing.T, db *engine.DB, shared []storage.OID) int64 {
	t.Helper()
	for _, oid := range shared {
		if _, ok := db.Store.Get(oid); !ok {
			t.Fatalf("shared account %d is gone", oid)
		}
	}
	var sum int64
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		sum = 0
		for _, oid := range shared {
			v, err := db.Send(tx, oid, "getbalance")
			if err != nil {
				return err
			}
			sum += v.I
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sum
}

// The churn mix must leave the shared population intact: deletes only
// ever hit worker-private accounts, and every deposit is counted.
func TestEngineChurnPreservesPopulation(t *testing.T) {
	db := openBankingDB(t, engine.Options{})
	shared := newAccounts(t, db, churnShared)
	deposits := runBanking(t, db, shared, 60, true)
	if got := sharedBalance(t, db, shared); got != deposits {
		t.Errorf("shared balance %d after %d committed deposits", got, deposits)
	}
}

// Durable runs of the send-heavy and the churn mix complete under group
// commit, and every committed deposit reached the log: a reopen recovers
// the shared population with the full balance.
func TestRecoveryEngineScenarioDurable(t *testing.T) {
	for _, churn := range []bool{false, true} {
		o := engine.Options{Durable: true, Dir: t.TempDir()}
		db := openBankingDB(t, o)
		shared := newAccounts(t, db, churnShared)
		deposits := runBanking(t, db, shared, 40, churn)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		re := openBankingDB(t, o)
		if got := sharedBalance(t, re, shared); got != deposits {
			t.Errorf("churn=%t: recovered balance %d after %d committed deposits", churn, got, deposits)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
