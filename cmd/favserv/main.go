// Command favserv serves an object database over favserv's wire
// protocol (see internal/serv): a TCP or unix-socket daemon whose
// clients batch commands into server-side transactions, pipelined so
// one group-commit fsync amortizes across connections.
//
// Usage:
//
//	favserv -sock /run/fav.sock -schema banking -dir /var/lib/fav
//	favserv -addr :6422 -schema app.fav -strategy fine \
//	        -commuting account:deposit:deposit -sync 2ms
//	favserv -sock /tmp/fav.sock -schema banking -smoke
//	                                    # start, self-check, exit 0
//
// The flags map 1:1 onto oodb.Options; -schema takes a schema source
// file, or one of the builtin application schemas ("banking", "cad").
// On SIGTERM/SIGINT the server drains gracefully: it stops accepting,
// answers everything already read from every connection, then closes
// the database.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/serv"
	"repro/internal/workload"
	"repro/oodb"
	"repro/oodb/client"
)

// commutingFlags collects repeated -commuting class:m1:m2 declarations.
type commutingFlags [][3]string

func (c *commutingFlags) String() string { return fmt.Sprint([][3]string(*c)) }

func (c *commutingFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return fmt.Errorf("want class:method:method, got %q", s)
	}
	*c = append(*c, [3]string{parts[0], parts[1], parts[2]})
	return nil
}

func main() {
	var commuting commutingFlags
	var (
		addr     = flag.String("addr", "", "TCP listen address (host:port)")
		sock     = flag.String("sock", "", "unix socket path (removed and re-bound if stale)")
		schemaF  = flag.String("schema", "", "schema source file, or builtin: banking, cad")
		strategy = flag.String("strategy", "fine", "concurrency-control strategy: fine, rw, rw-implicit, rw-announce, field, relational")
		dir      = flag.String("dir", "", "data directory; empty serves a volatile database")
		ckptEach = flag.Int64("checkpoint-bytes", 0, "auto-checkpoint when the log exceeds this size (0: manual only)")
		syncMode = flag.String("sync", "always", "durability policy: always, never, or an fsync interval like 2ms")
		slowTxn  = flag.Duration("slow-txn", 0, "arm the transaction flight recorder at this threshold")
		debug    = flag.Bool("debug", false, "log per-connection protocol errors")
		smoke    = flag.Bool("smoke", false, "start, self-check over a loopback client, and exit")
	)
	flag.Var(&commuting, "commuting", "ad hoc commutativity declaration class:method:method (repeatable)")
	flag.Parse()
	if err := serve(*addr, *sock, *schemaF, *strategy, *dir, *ckptEach,
		*syncMode, *slowTxn, *debug, *smoke, commuting); err != nil {
		fmt.Fprintln(os.Stderr, "favserv:", err)
		os.Exit(1)
	}
}

func serve(addr, sock, schemaF, strategy, dir string, ckptEach int64, syncMode string,
	slowTxn time.Duration, debug, smoke bool, commuting commutingFlags) error {
	if (addr == "") == (sock == "") {
		return fmt.Errorf("exactly one of -addr or -sock is required")
	}
	if schemaF == "" {
		return fmt.Errorf("-schema is required")
	}

	// Schema: a builtin name or a source file.
	source := ""
	switch schemaF {
	case "banking", "cad":
		src, comm, err := workload.AppSchema(schemaF)
		if err != nil {
			return err
		}
		source = src
		commuting = append(comm, commuting...)
	default:
		b, err := os.ReadFile(schemaF)
		if err != nil {
			return err
		}
		source = string(b)
	}
	var copts []oodb.Option
	for _, c := range commuting {
		copts = append(copts, oodb.WithCommuting(c[0], c[1], c[2]))
	}
	schema, err := oodb.Compile(source, copts...)
	if err != nil {
		return err
	}

	// Open options, straight from the flags.
	sync, err := parseSync(syncMode)
	if err != nil {
		return err
	}
	db, err := oodb.OpenWith(schema, oodb.Strategy(strategy), oodb.Options{
		Dir:                  dir,
		CheckpointEveryBytes: ckptEach,
		Sync:                 sync,
	})
	if err != nil {
		return err
	}
	db.SetSlowTxnThreshold(slowTxn)

	cfg := serv.Config{}
	if debug {
		cfg.Logf = log.Printf
	}
	network, laddr := "tcp", addr
	if sock != "" {
		network, laddr = "unix", sock
		// A stale socket file from an unclean shutdown blocks the bind;
		// remove it if nothing is listening. The probe names the network:
		// Dial reads a bare name without a "/" as host:port.
		if _, err := os.Stat(sock); err == nil {
			if c, err := client.Dial("unix:" + sock); err == nil {
				c.Close()
				db.Close()
				return fmt.Errorf("socket %s already has a live server", sock)
			}
			os.Remove(sock)
		}
	}
	srv, err := serv.Listen(db, network, laddr, cfg)
	if err != nil {
		db.Close()
		return err
	}
	log.Printf("favserv: serving %s on %s (%s, strategy %s, dir %q, sync %s)",
		schemaF, srv.Addr(), network, strategy, dir, syncMode)

	if smoke {
		err := smokeCheck(srv.Addr().String(), network)
		cerr := srv.Close()
		dcerr := db.Close()
		if err == nil {
			err = cerr
		}
		if err == nil {
			err = dcerr
		}
		if err == nil {
			log.Printf("favserv: smoke check ok")
		}
		return err
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	s := <-sigs
	log.Printf("favserv: %s, draining", s)
	if err := srv.Close(); err != nil {
		db.Close()
		return err
	}
	if err := db.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	log.Printf("favserv: drained clean: %d sessions, %d requests, %d txns, %d errors",
		st.SessionsTotal, st.Requests, st.Txns, st.Errors)
	return nil
}

// parseSync maps -sync onto the durability policy: always, never, or a
// positive fsync interval.
func parseSync(s string) (oodb.SyncPolicy, error) {
	switch s {
	case "always":
		return oodb.SyncAlways, nil
	case "never":
		return oodb.SyncNever, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return oodb.SyncAlways, fmt.Errorf("-sync wants always, never or a positive duration, got %q", s)
	}
	return oodb.SyncEvery(d), nil
}

// smokeCheck proves the wire works end to end: dial, ping, and where
// the schema allows it, one transaction.
func smokeCheck(addr, network string) error {
	if network == "unix" {
		addr = "unix:" + addr
	}
	c, err := client.Dial(addr)
	if err != nil {
		return fmt.Errorf("smoke dial: %w", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		return fmt.Errorf("smoke ping: %w", err)
	}
	if _, err := c.ServerStats(ctx); err != nil {
		return fmt.Errorf("smoke stats: %w", err)
	}
	return nil
}
