// Catalog: a product hierarchy (item → book, disc) used to compare the
// paper's protocol against the read/write baseline on the same workload:
// clerks adjust stock while a pricing job rewrites prices. Stock and
// price live in different fields, so the fine protocol runs both at
// once; instance-granule read/write locking serializes them. The example
// also shows a hierarchical domain scan (section 5.2 access (iv)):
// repricing every item in one sweep that blocks instance writers.
//
// Run with: go run ./examples/catalog
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/oodb"
)

const catalogSchema = `
class item is
    instance variables are
        sku    : integer
        price  : integer
        stock  : integer
    method setprice(p) is
        price := p
    end
    method discount(pct) is
        price := price - price * pct / 100
    end
    method receive(n) is
        stock := stock + n
    end
    method sell(n) is
        if n <= stock then
            stock := stock - n
        end
        return stock
    end
    method onhand is
        return stock
    end
end

class book inherits item is
    instance variables are
        author : string
    method setauthor(a) is
        author := a
    end
end

class disc inherits item is
    instance variables are
        minutes : integer
    method remaster(m) is
        minutes := m
        send discount(10) to self
    end
end
`

func run(strategy oodb.Strategy) (oodb.Stats, time.Duration, error) {
	schema, err := oodb.Compile(catalogSchema)
	if err != nil {
		return oodb.Stats{}, 0, err
	}
	db, err := oodb.Open(schema, strategy)
	if err != nil {
		return oodb.Stats{}, 0, err
	}

	// Populate: 4 books, 4 discs.
	var items []oodb.OID
	err = db.Update(func(tx *oodb.Txn) error {
		for i := 0; i < 4; i++ {
			oid, err := tx.New("book", 100+i, 2000, 10, "author")
			if err != nil {
				return err
			}
			items = append(items, oid)
		}
		for i := 0; i < 4; i++ {
			oid, err := tx.New("disc", 200+i, 1500, 20, 74)
			if err != nil {
				return err
			}
			items = append(items, oid)
		}
		return nil
	})
	if err != nil {
		return oodb.Stats{}, 0, err
	}
	before := db.Stats()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 2)

	// Clerk: each delivery touches every item in one transaction, so the
	// stock locks are held while the pricing job wants the same items.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := db.Update(func(tx *oodb.Txn) error {
				for _, oid := range items {
					if i%2 == 0 {
						if _, err := tx.Send(oid, "receive", 5); err != nil {
							return err
						}
					} else if _, err := tx.Send(oid, "sell", 3); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Pricing job: batch price updates across the same items.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := db.Update(func(tx *oodb.Txn) error {
				for _, oid := range items {
					if _, err := tx.Send(oid, "setprice", 1000+i); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				errs <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		return oodb.Stats{}, 0, err
	}
	// Counters are cumulative: report the two jobs' share.
	after := db.Stats()
	return oodb.Stats{
		Committed: after.Committed - before.Committed,
		Blocks:    after.Blocks - before.Blocks,
		Deadlocks: after.Deadlocks - before.Deadlocks,
	}, time.Since(start), nil
}

func main() {
	fmt.Println("stock clerk vs pricing job on a shared catalog")
	fmt.Println("(price and stock are different fields of the same items)")
	fmt.Println()
	fmt.Printf("%-12s %10s %8s %10s\n", "strategy", "committed", "waits", "deadlocks")
	for _, s := range []oodb.Strategy{oodb.Fine, oodb.ReadWrite, oodb.FieldLocking} {
		st, _, err := run(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10d %8d %10d\n", s, st.Committed, st.Blocks, st.Deadlocks)
	}
	fmt.Println()

	// Hierarchical repricing: one sweep over the whole item domain.
	schema, err := oodb.Compile(catalogSchema)
	if err != nil {
		log.Fatal(err)
	}
	db, err := oodb.Open(schema, oodb.Fine)
	if err != nil {
		log.Fatal(err)
	}
	err = db.Update(func(tx *oodb.Txn) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.New("book", i, 2000, 1, "a"); err != nil {
				return err
			}
			if _, err := tx.New("disc", i, 1500, 1, 60); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	before := db.Stats().LockRequests
	var visited int
	err = db.Update(func(tx *oodb.Txn) error {
		visited, err = tx.ScanSend("item", "discount", true, 25)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hierarchical repricing: %d items discounted with %d lock requests\n",
		visited, db.Stats().LockRequests-before)
	fmt.Println("(three class locks — item, book, disc — and no instance locks at all)")
}
