package engine

// Integration tests: every protocol implements strict two-phase locking,
// so every concurrent history must be serializable. The tests run
// invariant-preserving transactions (money transfers: each moves value
// between accounts, total constant) from many goroutines under every
// strategy and check the invariant and per-account non-negativity at
// the end — a direct serializability witness.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/txn"
)

const ledgerSchema = `
class ledgeracct is
    instance variables are
        bal : integer
    method credit(n) is
        bal := bal + n
    end
    method debit(n) is
        if n <= bal then
            bal := bal - n
            return n
        end
        return 0
    end
    method balance is
        return bal
    end
end
`

func setupLedger(t *testing.T, s Strategy, accounts int, initial int64) (*DB, []storage.OID) {
	t.Helper()
	c, err := core.CompileSource(ledgerSchema)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, s)
	var oids []storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < accounts; i++ {
			in, err := db.NewInstance(tx, "ledgeracct", storage.IntV(initial))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, oids
}

func ledgerTotal(t *testing.T, db *DB, oids []storage.OID) int64 {
	t.Helper()
	var total int64
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		total = 0
		for _, oid := range oids {
			v, err := db.Send(tx, oid, "balance")
			if err != nil {
				return err
			}
			total += v.I
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// transfer moves amount from one account to another inside one txn.
// The debit-then-credit pair is atomic under strict 2PL or not at all.
func transfer(db *DB, tx *txn.Txn, from, to storage.OID, amount int64) error {
	moved, err := db.Send(tx, from, "debit", storage.IntV(amount))
	if err != nil {
		return err
	}
	if moved.I == 0 {
		return nil // insufficient funds: a legal no-op
	}
	_, err = db.Send(tx, to, "credit", moved)
	return err
}

func TestSerializabilityTransfers(t *testing.T) {
	const (
		accounts = 4
		initial  = 1000
		workers  = 6
		rounds   = 40
	)
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db, oids := setupLedger(t, s, accounts, initial)
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						from := oids[(g+r)%accounts]
						to := oids[(g+r+1+g%2)%accounts]
						if from == to {
							continue
						}
						err := db.RunWithRetry(func(tx *txn.Txn) error {
							return transfer(db, tx, from, to, int64(1+r%7))
						})
						if err != nil {
							t.Errorf("%s: transfer: %v", s.Name(), err)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			if got := ledgerTotal(t, db, oids); got != accounts*initial {
				t.Errorf("%s: total = %d, want %d (serializability violated)",
					s.Name(), got, accounts*initial)
			}
			for _, oid := range oids {
				in, _ := db.Store.Get(oid)
				if bal := in.Get(0).I; bal < 0 {
					t.Errorf("%s: account %d negative: %d", s.Name(), oid, bal)
				}
			}
		})
	}
}

// Aborted transfers must leave no partial effects even when the abort
// happens between the debit and the credit.
func TestAbortLeavesNoPartialTransfer(t *testing.T) {
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db, oids := setupLedger(t, s, 2, 100)
			tx := db.Begin()
			if _, err := db.Send(tx, oids[0], "debit", storage.IntV(40)); err != nil {
				t.Fatal(err)
			}
			// Abort with the debit applied and the credit not yet sent.
			tx.Abort()
			if got := ledgerTotal(t, db, oids); got != 200 {
				t.Errorf("total = %d after abort, want 200", got)
			}
			in, _ := db.Store.Get(oids[0])
			if got := in.Get(0).I; got != 100 {
				t.Errorf("debited account = %d after abort, want 100", got)
			}
		})
	}
}

// Domain scans interleaved with writers must observe a consistent whole:
// a hierarchical scan summing balances can never see money in flight.
func TestScanSeesConsistentTotals(t *testing.T) {
	const (
		accounts = 3
		initial  = 500
	)
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db, oids := setupLedger(t, s, accounts, initial)
			stop := make(chan struct{})
			var wg sync.WaitGroup

			// Writer: continuous transfers.
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					r++
					err := db.RunWithRetry(func(tx *txn.Txn) error {
						return transfer(db, tx, oids[r%accounts], oids[(r+1)%accounts], 5)
					})
					if err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}()

			// Scanner: hierarchical domain scans that sum everything via
			// the balance method, inside one transaction each.
			for i := 0; i < 20; i++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					total := int64(0)
					for _, oid := range oids {
						v, err := db.Send(tx, oid, "balance")
						if err != nil {
							return err
						}
						total += v.I
					}
					if total != accounts*initial {
						return fmt.Errorf("scan observed total %d, want %d", total, accounts*initial)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// A wide ledger spreads accounts across every shard of the sharded lock
// table: 8 workers transfer between pseudo-random account pairs, so
// acquires land on distinct shards almost always and the cross-shard
// release/promote/deadlock paths all run. The conservation total is the
// serializability witness; the stats algebra catches lost or
// double-counted lock requests.
func TestSerializabilityWideLedgerStorm(t *testing.T) {
	const (
		accounts = 256
		initial  = 1000
		workers  = 8
		rounds   = 60
	)
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db, oids := setupLedger(t, s, accounts, initial)
			committed0 := db.Txns.Snapshot().Committed
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						// Mostly-disjoint pairs with an occasional shared hot
						// account to exercise blocking too.
						from := oids[(g*31+r*17)%accounts]
						to := oids[(g*13+r*29+1)%accounts]
						if r%10 == 0 {
							to = oids[0]
						}
						if from == to {
							continue
						}
						err := db.RunWithRetry(func(tx *txn.Txn) error {
							return transfer(db, tx, from, to, int64(1+r%5))
						})
						if err != nil {
							t.Errorf("%s: transfer: %v", s.Name(), err)
							return
						}
					}
				}(g)
			}
			wg.Wait()

			if got := ledgerTotal(t, db, oids); got != accounts*initial {
				t.Errorf("%s: total = %d, want %d (serializability violated)",
					s.Name(), got, accounts*initial)
			}
			ls := db.Locks().Snapshot()
			if ls.Requests != ls.Reentrant+ls.ImmediateGrants+ls.Blocks {
				t.Errorf("%s: lock stats unbalanced: %+v", s.Name(), ls)
			}
			ts := db.Txns.Snapshot()
			if ts.Committed == committed0 || ts.Begun != ts.Committed+ts.Aborted {
				t.Errorf("%s: txn stats unbalanced: %+v", s.Name(), ts)
			}
		})
	}
}

// Declared (escrow-style) commutativity admits concurrent writers of
// one slot, which the logical locks deliberately do not exclude — the
// paper's deposit/deposit case. The write frames must therefore be
// physically atomic: N goroutines × M deposits of 1 on one shared
// account must land on exactly N*M, under real parallelism. This is
// the regression test for the lost-update race the GOMAXPROCS matrix
// exposed (reads and writes of `balance := balance + n` interleaving
// between two commuting holders).
func TestCommutingDepositsAtomic(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const src = `
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method getbalance is
        return balance
    end
end
`
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	c, err := core.CompileSource(src, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, FineCC{})
	var oid storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "account")
		oid = in.OID
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const depositsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < depositsEach; i++ {
				if err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.Send(tx, oid, "deposit", storage.IntV(1))
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var got Value
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		got, err = db.Send(tx, oid, "getbalance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != storage.IntV(workers*depositsEach) {
		t.Fatalf("balance %v after %d commuting deposits, want %d", got, workers*depositsEach, workers*depositsEach)
	}
}
