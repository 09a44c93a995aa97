package main

import (
	"fmt"
	"io"
	"net"
	"net/http"

	"repro/oodb"
)

// demoSchema is the banking hierarchy of examples/banking, compact
// enough for the durability demo.
const demoSchema = `
class account is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method getbalance is
        return balance
    end
end
`

// runDurableDemo exercises the public durable API end to end: recover
// whatever a previous invocation left under dir, deposit into the
// persistent account, report, close. Run it repeatedly and the balance
// keeps climbing across processes. With debugAddr non-empty the
// database's debug handler (metrics + pprof) serves on that address
// throughout, and the process stays up after the demo so the endpoints
// can be scraped.
func runDurableDemo(w io.Writer, dir, debugAddr string) error {
	schema, err := oodb.Compile(demoSchema)
	if err != nil {
		return err
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer db.Close()

	var debugLn net.Listener
	if debugAddr != "" {
		debugLn, err = net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		go http.Serve(debugLn, db.DebugHandler()) //nolint:errcheck // dies with the process
		fmt.Fprintf(w, "debug handler on http://%s/ (metrics, vars, slowtxns, debug/pprof)\n",
			debugLn.Addr())
	}

	rec := db.Recovery()
	switch {
	case rec.Checkpoint || rec.RecordsApplied > 0:
		fmt.Fprintf(w, "recovered: checkpoint=%v, %d commit records replayed", rec.Checkpoint, rec.RecordsApplied)
		if rec.TornTailBytes > 0 {
			fmt.Fprintf(w, " (%d torn bytes truncated)", rec.TornTailBytes)
		}
		fmt.Fprintln(w)
	default:
		fmt.Fprintf(w, "fresh database in %s\n", dir)
	}

	// The first invocation creates account #1; later ones find it by its
	// stable OID (the allocator restarts above everything recovered).
	const acct = oodb.OID(1)
	err = db.Update(func(tx *oodb.Txn) error {
		if _, err := tx.Send(acct, "getbalance"); err != nil {
			created, err := tx.New("account", int64(1), "demo", int64(0))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "created account #%d\n", created)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var balance any
	err = db.Update(func(tx *oodb.Txn) error {
		if _, err := tx.Send(acct, "deposit", int64(10)); err != nil {
			return err
		}
		balance, err = tx.Send(acct, "getbalance")
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "deposited 10; balance is now %v (fsynced to %s)\n", balance, dir)
	if debugLn != nil {
		fmt.Fprintln(w, "demo done; debug handler still serving — interrupt to exit")
		select {}
	}
	return nil
}
