// Banking: a small account hierarchy showing how the compile-time
// analysis separates methods that touch different parts of an object —
// balance movements, ownership changes, audit flags — and how ad hoc
// commutativity (section 3 of the paper, citing O'Neil's Escrow method)
// lets deposits to one account proceed concurrently.
//
// Run with: go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/oodb"
)

const bankSchema = `
class account is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
        flagged : boolean
    method deposit(n) is
        balance := balance + n
    end
    method withdraw(n) is
        if n <= balance then
            balance := balance - n
        end
        return balance
    end
    method getbalance is
        return balance
    end
    method rename(who) is
        owner := who
    end
    method flag is
        flagged := true
    end
    method isflagged is
        return flagged
    end
end

class savings inherits account is
    instance variables are
        ratepct : integer
    method accrue is
        send deposit(balance * ratepct / 100) to self
    end
end

class checking inherits account is
    instance variables are
        overdraft : integer
    method withdraw(n) is redefined as
        if n <= balance + overdraft then
            balance := balance - n
        end
        return balance
    end
end
`

func main() {
	// Deposits commute with deposits (escrow-style declaration).
	schema, err := oodb.Compile(bankSchema,
		oodb.WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== derived access modes ==")
	for _, m := range []string{"deposit", "rename", "flag", "accrue"} {
		if contains(schema.Methods("savings"), m) {
			av, _ := schema.AccessVector("savings", m)
			fmt.Printf("TAV(savings,%s) = %s\n", m, av)
		}
	}
	fmt.Println()

	// Interesting consequences, straight from the vectors:
	show := func(class, a, b string) {
		ok, err := schema.Commute(class, a, b)
		if err != nil {
			log.Fatal(err)
		}
		rel := "conflicts with"
		if ok {
			rel = "commutes with"
		}
		fmt.Printf("  %-10s %s %s (on %s)\n", a, rel, b, class)
	}
	show("account", "rename", "deposit")    // disjoint fields: commute
	show("account", "flag", "getbalance")   // disjoint fields: commute
	show("account", "deposit", "deposit")   // ad hoc escrow: commute
	show("account", "withdraw", "deposit")  // both touch balance: conflict
	show("savings", "accrue", "getbalance") // accrue writes balance: conflict
	fmt.Println()

	db, err := oodb.Open(schema, oodb.Fine)
	if err != nil {
		log.Fatal(err)
	}

	// A few accounts.
	var acct, sav oodb.OID
	err = db.Update(func(tx *oodb.Txn) error {
		if acct, err = tx.New("account", 1001, "ada", 100, false); err != nil {
			return err
		}
		sav, err = tx.New("savings", 1002, "grace", 1000, false, 5)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent renames and deposits on the SAME account: disjoint
	// fields, so neither waits. A teller renames while payroll deposits.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := db.Update(func(tx *oodb.Txn) error {
				_, err := tx.Send(acct, "deposit", 10)
				return err
			}); err != nil {
				log.Fatal(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := db.Update(func(tx *oodb.Txn) error {
				_, err := tx.Send(acct, "rename", fmt.Sprintf("owner-%d", i))
				return err
			}); err != nil {
				log.Fatal(err)
			}
		}
	}()
	wg.Wait()

	st := db.Stats()
	fmt.Printf("deposit/rename mix: committed=%d waits=%d deadlocks=%d\n",
		st.Committed, st.Blocks, st.Deadlocks)

	// Interest accrual on the savings account (code reuse: accrue
	// self-sends deposit — one lock, not two, thanks to the TAV).
	before := st.LockRequests
	if err := db.Update(func(tx *oodb.Txn) error {
		_, err := tx.Send(sav, "accrue")
		return err
	}); err != nil {
		log.Fatal(err)
	}
	requests := db.Stats().LockRequests - before // before the balance read below adds its own locks
	out, err := readBalance(db, sav)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accrue: balance=%d, lock requests=%d (one instance + one class)\n",
		out, requests)
}

func readBalance(db *oodb.Database, oid oodb.OID) (int64, error) {
	var out any
	err := db.Update(func(tx *oodb.Txn) error {
		var err error
		out, err = tx.Send(oid, "getbalance")
		return err
	})
	if err != nil {
		return 0, err
	}
	return out.(int64), nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
