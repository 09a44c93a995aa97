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
		groupWin = flag.Duration("group-commit", 0, "group-commit window (how long a batch waits for company)")
		ckptEach = flag.Int64("checkpoint-bytes", 0, "auto-checkpoint when the log exceeds this size (0: manual only)")
		syncMode = flag.String("sync", "always", "durability policy: always, never, or an fsync interval like 2ms")
		slowTxn  = flag.Duration("slow-txn", 0, "arm the transaction flight recorder at this threshold")
		noMetric = flag.Bool("no-metrics", false, "strip the observability registry")
		debug    = flag.Bool("debug", false, "log per-connection protocol errors")
		smoke    = flag.Bool("smoke", false, "start, self-check over a loopback client, and exit")
	)
	flag.Var(&commuting, "commuting", "ad hoc commutativity declaration class:method:method (repeatable)")
	flag.Parse()
	if err := serve(*addr, *sock, *schemaF, *strategy, *dir, *groupWin, *ckptEach,
		*syncMode, *slowTxn, *noMetric, *debug, *smoke, commuting); err != nil {
		fmt.Fprintln(os.Stderr, "favserv:", err)
		os.Exit(1)
	}
}

func serve(addr, sock, schemaF, strategy, dir string,
	groupWin time.Duration, ckptEach int64, syncMode string,
	slowTxn time.Duration, noMetric, debug, smoke bool, commuting commutingFlags) error {
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
	o := oodb.DefaultOptions()
	o.Dir = dir
	o.GroupCommitWindow = groupWin
	o.CheckpointEveryBytes = ckptEach
	o.NoMetrics = noMetric
	o.SlowTxnThreshold = slowTxn
	switch syncMode {
	case "always":
	case "never":
		o.SyncNever = true
	default:
		d, err := time.ParseDuration(syncMode)
		if err != nil || d <= 0 {
			return fmt.Errorf("-sync wants always, never or a positive duration, got %q", syncMode)
		}
		o.SyncEvery = d
	}
	db, err := oodb.OpenWith(schema, oodb.Strategy(strategy), o)
	if err != nil {
		return err
	}

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
