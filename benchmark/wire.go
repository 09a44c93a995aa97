package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serv"
	"repro/oodb"
	"repro/oodb/client"
)

// wire_transfer is the standing figure for a durable transaction driven
// over the wire: an in-process serv server on a unix socket over a
// durable database (SyncAlways, group-commit window 0 — the
// oodb.Options{Dir} defaults), 100 000 accounts picked uniformly, two
// pipelined client connections. 80 % of transactions are transfers (a
// two-command batch), 20 % single-balance views.
//
// Phase A is a closed loop with wireInflight requests outstanding per
// connection: far more than rate x fsync latency, so throughput is
// bound by the processors and not by the disk's flush time (256 gives
// the same throughput, 128 less). It takes all of -seconds and gives
// txn_per_s. Phase B, in a traced run only, is an open loop at a fixed
// rate well under that throughput, sent in 1 ms bursts; latency is taken
// from the time a request was due, so a stall is charged to every
// request it delayed. It gives the per-layer bench.ack_* and the counts.

const (
	wireAccounts = 100_000
	wireWarm     = 40_000 // warm-up transactions per connection, fixed count
	wireInflight = 512    // phase A, requests in flight per connection
	pacedRate    = 20_000 // phase B, transactions per second over both connections
	pacedTick    = time.Millisecond
	pacedWindows = 3 // phase B, windows
)

type wireRig struct {
	db       *oodb.Database
	srv      *serv.Server
	conns    []*client.Client
	accounts []oodb.OID
	warm     []*ledger
}

func (r *wireRig) close() error {
	for _, c := range r.conns {
		if err := c.Close(); err != nil {
			return fmt.Errorf("client close: %w", err)
		}
	}
	// Close drains: everything received is executed and answered.
	if err := r.srv.Close(); err != nil {
		return fmt.Errorf("server did not drain cleanly: %w", err)
	}
	return r.db.Close()
}

func setupWire(cfg *config, dir string, seedStream uint64) (*wireRig, error) {
	schema, err := compileFacade()
	if err != nil {
		return nil, err
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{Dir: filepath.Join(dir, "db")})
	if err != nil {
		return nil, err
	}
	rig := &wireRig{db: db}
	if rig.accounts, err = preloadFacade(db, cfg.scaled(wireAccounts)); err != nil {
		return nil, err
	}
	if rig.srv, err = serv.Listen(db, "unix", filepath.Join(dir, "s.sock"), serv.Config{}); err != nil {
		return nil, err
	}
	for i := 0; i < workers; i++ {
		c, err := client.Dial(filepath.Join(dir, "s.sock"))
		if err != nil {
			return nil, err
		}
		rig.conns = append(rig.conns, c)
	}
	ws := rig.newConns(cfg, seedStream, nil)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() { defer wg.Done(); w.closedLoop(cfg.scaled(wireWarm), winClock{}, false) }()
	}
	wg.Wait()
	for _, w := range ws {
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d requests failed: %v", w.failed, w.lastErr)
		}
		rig.warm = append(rig.warm, w.led)
	}
	return rig, nil
}

// flight is one request on the wire and what the generator needs to
// check its answer.
type flight struct {
	p    *client.Pending
	a, b int32
	view bool
}

// wireConn is the generator of one connection.
type wireConn struct {
	c        *client.Client
	accounts []oodb.OID
	r        *rng
	pick     picker
	led      *ledger
	tr       *tracer
	update   *client.Tx
	view     *client.Tx
	ring     ring[flight]

	attempted, failed, settled int64
	lastErr                    error
	counts                     []int64
}

func (rig *wireRig) newConns(cfg *config, seedStream uint64, tracers []*tracer) []*wireConn {
	ws := make([]*wireConn, workers)
	for i := range ws {
		w := &wireConn{
			c: rig.conns[i], accounts: rig.accounts, led: newLedger(len(rig.accounts)),
			update: client.NewTx(), view: client.NewView(), ring: ring[flight]{buf: make([]flight, wireInflight)},
		}
		w.r = newRNG(cfg.seed, seedStream*16+uint64(i))
		w.pick = picker{r: w.r, n: len(rig.accounts)}
		if tracers != nil {
			w.tr = tracers[i]
		}
		ws[i] = w
	}
	return ws
}

// issue draws one transaction and puts it on the wire.
func (w *wireConn) issue(tracing bool) (flight, error) {
	a := w.pick.pick()
	f := flight{a: int32(a)}
	var tx *client.Tx
	if w.r.intn(100) < 80 {
		b := w.pick.pickOther(a)
		f.b = int32(b)
		tx = w.update.Reset()
		tx.Send(w.accounts[a], "withdraw", int64(1))
		tx.Send(w.accounts[b], "deposit", int64(1))
	} else {
		f.view = true
		tx = w.view.Reset()
		tx.Send(w.accounts[a], "getbalance")
	}
	w.attempted++
	if tracing {
		w.tr.nextTxn()
		w.tr.begin(spanClientStart)
		defer w.tr.end()
	}
	var err error
	f.p, err = w.c.Start(context.Background(), tx)
	return f, err
}

// settle waits for one answer and checks it: status OK, the expected
// number of results, and — for a view — a balance to hold against the
// account's history. Anything else is a failed operation.
func (w *wireConn) settle(f flight, tracing bool) bool {
	if tracing {
		w.tr.begin(spanClientWait)
	}
	res, err := f.p.Wait()
	if tracing {
		w.tr.end()
	}
	w.settled++
	switch {
	case err != nil:
		w.lastErr = err
	case f.view && res.Len() == 1:
		w.led.viewed(int(f.a), res.Int(0))
		return true
	case !f.view && res.Len() == 2:
		w.led.withdrew(int(f.a))
		w.led.deposited(int(f.b))
		return true
	default:
		w.lastErr = fmt.Errorf("answer carries %d results", res.Len())
	}
	w.failed++
	return false
}

// closedLoop keeps the ring full of requests in flight: it waits for
// the oldest answer only when the ring is full, then sends the next
// request. With a zero clock it runs a fixed count (warm-up); otherwise
// it counts acknowledgements per window until the clock runs out. Either
// way it ends by waiting for everything still in flight.
func (w *wireConn) closedLoop(fixed int, clk winClock, traced bool) {
	if clk.n > 0 {
		w.counts = make([]int64, clk.n)
		sleepUntil(clk.start)
	}
	idx := 0
	for i := 0; clk.n > 0 || i < fixed; i++ {
		tracing := traced && idx%2 == 0
		if w.ring.full() {
			w.settle(w.ring.pop(), tracing)
			if clk.n > 0 {
				if w.settled%latencyStride == 0 {
					k := clk.index(time.Now())
					if k >= clk.n {
						break
					}
					idx = k
				}
				w.counts[idx]++
			}
		}
		f, err := w.issue(tracing)
		if err != nil {
			w.failed++
			w.lastErr = err
			break
		}
		w.ring.push(f)
	}
	for w.ring.n > 0 {
		w.settle(w.ring.pop(), false)
	}
}

// paced is the open loop of one connection: the sender issues a burst
// every tick whatever has or has not been answered; the collector waits
// for the answers in order (a connection answers in request order) and
// times each from the tick it was due.
type paced struct {
	w       *wireConn
	clk     winClock
	perTick int
	flights chan flight // capacity = every send of the phase, so the sender never waits on the collector
	lat     *winSamples
	late    *samples // how late each burst started
	sendErr error
}

func (p *paced) ticks() int { return int(p.clk.length/pacedTick) * p.clk.n }

func (p *paced) send() {
	defer close(p.flights)
	sleepUntil(p.clk.start)
	for tick := 0; tick < p.ticks(); tick++ {
		due := p.clk.start.Add(time.Duration(tick) * pacedTick)
		sleepUntil(due)
		p.late.add(time.Since(due).Nanoseconds())
		var last flight
		for j := 0; j < p.perTick; j++ {
			f, err := p.w.issue(false)
			if err != nil {
				p.sendErr = err // the collector owns the connection's failure count
				return
			}
			p.flights <- f
			last = f
		}
		last.p.Done() // puts the burst on the wire; does not wait
	}
}

func (p *paced) collect() {
	seq := 0
	for f := range p.flights {
		tick := seq / p.perTick
		seq++
		ok := p.w.settle(f, false)
		due := p.clk.start.Add(time.Duration(tick) * pacedTick)
		p.lat.enter(tick / int(p.clk.length/pacedTick))
		if ok {
			p.lat.add(time.Since(due).Nanoseconds())
		} else {
			p.lat.add(failedLatency)
		}
	}
}

func runWireTransfer(cfg *config) (*result, error) {
	res := &result{}
	rigs, nwin := cfg.rigs()
	tracers := newTracers(cfg.trace)
	var (
		rates []float64
		// Of the last rig, for the traced run, which has one.
		counts   [][]int64
		clk      winClock
		accounts int
	)
	setups, err := eachRig(rigs,
		func(i int, dir string) (*wireRig, error) { return setupWire(cfg, dir, uint64(2*i)) },
		func(i int, rig *wireRig) error {
			ws := rig.newConns(cfg, uint64(2*i+1), tracers)
			served := rig.srv.Stats()
			accounts = len(rig.accounts)

			// Phase A: closed loop.
			clk = winClock{start: time.Now().Add(20 * time.Millisecond), length: cfg.window(), n: nwin}
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func() { defer wg.Done(); w.closedLoop(0, clk, cfg.trace) }()
			}
			wg.Wait()
			counts = nil
			for _, w := range ws {
				counts = append(counts, w.counts)
			}
			rates = append(rates, windowRates(counts, clk.length)...)

			// Phase B: open loop at a fixed rate.
			before, err := readCounters(rig.db)
			if err != nil {
				return err
			}
			var ps []*paced
			if cfg.trace {
				clkB := winClock{start: time.Now().Add(20 * time.Millisecond), length: cfg.window(), n: pacedWindows}
				for _, w := range ws {
					p := &paced{w: w, clk: clkB, perTick: pacedRate / workers / int(time.Second/pacedTick)}
					p.flights = make(chan flight, p.ticks()*p.perTick)
					p.lat = newWinSamples(p.ticks()*p.perTick, pacedWindows)
					p.late = newSamples(p.ticks())
					ps = append(ps, p)
					wg.Add(2)
					go func() { defer wg.Done(); p.send() }()
					go func() { defer wg.Done(); p.collect() }()
				}
				wg.Wait()
			}
			after, err := readCounters(rig.db)
			if err != nil {
				return err
			}

			var lats []*winSamples
			var lates [][]int64
			var sent, pacedTxns int64
			for _, p := range ps {
				if p.sendErr != nil {
					p.w.failed++
					p.w.lastErr = p.sendErr
				}
				lats = append(lats, p.lat)
				lates = append(lates, p.late.v)
				pacedTxns += int64(len(p.lat.v))
			}
			ledgers := append([]*ledger(nil), rig.warm...)
			for c, w := range ws {
				sent += w.attempted
				res.failed += w.failed
				ledgers = append(ledgers, w.led)
				if w.lastErr != nil {
					res.notef("connection %d error: %v", c, w.lastErr)
				}
				// Answered exactly once: every request started was settled,
				// and a Pending resolves at most once by construction.
				if w.settled != w.attempted {
					return fmt.Errorf("connection %d: %d requests started, %d answered", c, w.attempted, w.settled)
				}
			}
			res.attempted += sent

			// Output checks.
			st := rig.srv.Stats()
			if st.Errors != served.Errors {
				return fmt.Errorf("server answered %d requests with an error status", st.Errors-served.Errors)
			}
			if got := st.Requests - served.Requests; got != sent {
				return fmt.Errorf("server executed %d requests, clients sent %d", got, sent)
			}
			if st.Inflight != 0 {
				return fmt.Errorf("%d requests still in flight on the server after every answer arrived", st.Inflight)
			}
			if err := checkFacadeLedgers(rig.db, rig.accounts, ledgers); err != nil {
				return err
			}
			if int(after.instances) != len(rig.accounts) {
				return fmt.Errorf("%d live instances, want %d", int(after.instances), len(rig.accounts))
			}
			if !cfg.trace {
				return nil
			}

			late := mergeSorted(lates...)
			res.notef("wire_transfer open loop: %d txn/s in %v bursts; generator woke p50 %.0f us, p99 %.0f us late; %.1f txn per fsync; fsync p50 since open %.0f us",
				pacedRate, pacedTick, float64(quantileSorted(late, 0.5))/1e3, float64(quantileSorted(late, 0.99))/1e3,
				float64(after.stats.WALRecords-before.stats.WALRecords)/max(1, float64(after.stats.WALFsyncs-before.stats.WALFsyncs)),
				after.fsyncP50US)
			// The count-type metrics are taken over the fixed-rate phase, so
			// they do not move with the host's speed.
			res.add(counterMetrics(before, after, pacedTxns)...)
			res.add(metric{Name: "serv.errors", Unit: "count", Value: float64(st.Errors - served.Errors)})
			var acks ackWindows
			acks.add(lats, pacedWindows)
			res.add(acks.metrics()...)
			ws, ps, lats, lates, ledgers, late = nil, nil, nil, nil, nil, nil
			rig.warm = nil
			res.add(heapMetric(len(rig.accounts)))
			return nil
		},
		// Closing drains: the server answers everything it received.
		(*wireRig).close)
	if err != nil {
		return nil, err
	}
	res.notef("wire_transfer closed-loop windows (k txn/s), %d to a rig:%s", nwin, formatRates(rates))

	if cfg.trace {
		overhead := traceReport(res, "wire_transfer (closed loop; the server shares the two processors, so its time is the remainder)", tracers, counts, clk)
		res.add(metric{Name: "bench.trace_overhead_pct", Unit: "%", Value: overhead, N: nwin})
		return res, finishTrace(cfg, res, tracers, accounts)
	}
	res.add(medianMetric("setup_s", "s", setups))
	res.add(medianMetric("txn_per_s", "txn/s", rates))
	res.add(peakRSSMetric())
	return res, nil
}
