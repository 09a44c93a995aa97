// CAD: the paper motivates escalation deadlocks with System R numbers
// taken from a study of long-duration CAD transactions (Korth, Kim &
// Bancilhon [14]). This example replays that situation: designers run
// long check-then-revise sessions against shared design parts. Under
// read/write locking every session starts reading and later escalates
// to write — two sessions on one part deadlock. The paper's protocol
// knows the full effect of the session up front (its transitive access
// vector) and simply serializes, aborting no one.
//
// Run with: go run ./examples/cad
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/oodb"
)

const cadSchema = `
class part is
    instance variables are
        partno   : integer
        geometry : integer
        revision : integer
        checked  : boolean
    method inspect(work) is
        var i := 0
        var acc := 0
        while i < work do
            i := i + 1
            acc := acc + geometry * i
        end
        return acc
    end
    method revise(delta) is
        geometry := geometry + delta
        revision := revision + 1
        checked := false
    end
    method session(work) is
        var score := send inspect(work) to self
        send revise(score % 7 + 1) to self
    end
    method approve is
        checked := true
    end
end

class assembly inherits part is
    instance variables are
        children : integer
    method session(work) is redefined as
        send part.session(work) to self
        children := children + 1
    end
end
`

func designers(strategy oodb.Strategy, workers, sessions int) (oodb.Stats, error) {
	schema, err := oodb.Compile(cadSchema)
	if err != nil {
		return oodb.Stats{}, err
	}
	db, err := oodb.Open(schema, strategy)
	if err != nil {
		return oodb.Stats{}, err
	}

	// Two contended parts and one assembly.
	var parts []oodb.OID
	err = db.Update(func(tx *oodb.Txn) error {
		for i := 0; i < 2; i++ {
			oid, err := tx.New("part", 100+i, 50, 0, true)
			if err != nil {
				return err
			}
			parts = append(parts, oid)
		}
		oid, err := tx.New("assembly", 200, 80, 0, true, 0)
		if err != nil {
			return err
		}
		parts = append(parts, oid)
		return nil
	})
	if err != nil {
		return oodb.Stats{}, err
	}
	before := db.Stats()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < sessions; r++ {
				oid := parts[(g+r)%len(parts)]
				if err := db.Update(func(tx *oodb.Txn) error {
					_, err := tx.Send(oid, "session", 300)
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return oodb.Stats{}, err
	}
	// Counters are cumulative: report the sessions' share.
	after := db.Stats()
	return oodb.Stats{
		Committed:           after.Committed - before.Committed,
		Deadlocks:           after.Deadlocks - before.Deadlocks,
		EscalationDeadlocks: after.EscalationDeadlocks - before.EscalationDeadlocks,
		Retries:             after.Retries - before.Retries,
	}, nil
}

func main() {
	fmt.Println("long check-then-revise design sessions on shared parts")
	fmt.Println("(the session method reads at length, then revises — the")
	fmt.Println(" escalation pattern System R blamed for 97% of deadlocks)")
	fmt.Println()
	fmt.Printf("%-12s %10s %10s %12s %10s\n",
		"strategy", "committed", "deadlocks", "escalations", "retries")
	for _, s := range []oodb.Strategy{oodb.ReadWrite, oodb.ReadWriteAnnounce, oodb.Fine} {
		st, err := designers(s, 6, 25)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %10d %10d %12d %10d\n",
			s, st.Committed, st.Deadlocks, st.EscalationDeadlocks, st.Retries)
	}
	fmt.Println()
	fmt.Println("read/write deadlocks are escalations from the inspect-phase read")
	fmt.Println("lock; announcing the final mode (or deriving it at compile time,")
	fmt.Println("as the paper does) removes them entirely.")
}
