package main

import (
	"fmt"
	"sync"
	"time"

	"repro/oodb"
)

// embedded_mix and embedded_hot drive the public oodb API in-process on
// a volatile database with two closed-loop workers: each worker runs its
// next transaction when the previous one returns. Neither touches serv
// or wal, so a wire or log change must leave both flat.
//
//   - mix: 100 000 accounts picked uniformly; 60 % transfers, 30 %
//     single-balance views on the snapshot path, 10 % churn (create and
//     delete one account in one transaction). Conflicts are rare, so
//     the time is the engine/lock/txn/storage hot path and cache misses
//     over a store far larger than the CPU cache.
//   - hot: a 256-account hot set picked zipfian (s = 1); 50 % sweeps
//     that withdraw from one account and deposit into three in random
//     order, 50 % views that read eight balances. The store fits the
//     cache; lock waits, deadlock retries and version chains read
//     beside concurrent writers are what is measured.

const (
	mixAccounts  = 100_000
	hotAccounts  = 256
	embeddedWarm = 150_000 // warm-up transactions per worker, fixed count
	sweepSize    = 4
	viewSize     = 8
)

type embeddedRig struct {
	db       *oodb.Database
	accounts []oodb.OID
	warm     []*ledger // what the warm-up did, for the final balance check
}

func setupEmbedded(cfg *config, hot bool, seedStream uint64) (*embeddedRig, error) {
	schema, err := compileFacade()
	if err != nil {
		return nil, err
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{})
	if err != nil {
		return nil, err
	}
	n := cfg.scaled(mixAccounts)
	if hot {
		n = hotAccounts
	}
	accounts, err := preloadFacade(db, n)
	if err != nil {
		return nil, err
	}
	rig := &embeddedRig{db: db, accounts: accounts}
	// Warm-up: a fixed count, so set-up does the same work every run.
	ws := rig.newWorkers(cfg, hot, seedStream, nil)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cfg.scaled(embeddedWarm); i++ {
				w.one(false)
			}
		}()
	}
	wg.Wait()
	for _, w := range ws {
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %d transactions failed: %v", w.failed, w.lastErr)
		}
	}
	// The warm-up moved balances; put its record where the final check
	// will find it.
	rig.warm = make([]*ledger, len(ws))
	for i, w := range ws {
		rig.warm[i] = w.led
	}
	return rig, nil
}

// preloadFacade creates n accounts through the public API, 1000 to a
// transaction.
func preloadFacade(db *oodb.Database, n int) ([]oodb.OID, error) {
	accounts := make([]oodb.OID, 0, n)
	for base := 0; base < n; base += 1000 {
		end := min(base+1000, n)
		err := db.Update(func(tx *oodb.Txn) error {
			accounts = accounts[:base] // a retried attempt starts over
			for i := base; i < end; i++ {
				class, vals := accountFields(i)
				oid, err := tx.New(class, vals[:]...)
				if err != nil {
					return err
				}
				accounts = append(accounts, oid)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return accounts, nil
}

// embWorker is one closed-loop generator. Its closures are built once,
// so the generator itself allocates nothing per transaction.
type embWorker struct {
	db       *oodb.Database
	accounts []oodb.OID
	hot      bool
	r        *rng
	pick     picker
	led      *ledger
	tr       *tracer
	tracing  bool

	// arguments and results of the transaction in hand
	targets [viewSize]int
	values  [viewSize]int64

	transfer, view, churn, sweep, viewMany func(*oodb.Txn) error

	attempted, failed int64
	lastErr           error
	counts            []int64
	lat               *winSamples
}

func (rig *embeddedRig) newWorkers(cfg *config, hot bool, seedStream uint64, tracers []*tracer) []*embWorker {
	ws := make([]*embWorker, workers)
	for i := range ws {
		w := &embWorker{db: rig.db, accounts: rig.accounts, hot: hot, led: newLedger(len(rig.accounts))}
		w.r = newRNG(cfg.seed, seedStream*16+uint64(i))
		w.pick = picker{r: w.r, n: len(rig.accounts)}
		if hot {
			w.pick.zipf = newZipfTable(len(rig.accounts), 1.0)
		}
		if tracers != nil {
			w.tr = tracers[i]
		}
		w.buildOps()
		ws[i] = w
	}
	return ws
}

func (w *embWorker) send(tx *oodb.Txn, target int, method string, args ...any) (any, error) {
	if w.tracing {
		w.tr.begin(spanSend)
		defer w.tr.end()
	}
	return tx.Send(w.accounts[target], method, args...)
}

func (w *embWorker) buildOps() {
	w.transfer = func(tx *oodb.Txn) error {
		if _, err := w.send(tx, w.targets[0], "withdraw", int64(1)); err != nil {
			return err
		}
		_, err := w.send(tx, w.targets[1], "deposit", int64(1))
		return err
	}
	w.view = func(tx *oodb.Txn) error {
		v, err := w.send(tx, w.targets[0], "getbalance")
		if err != nil {
			return err
		}
		w.values[0] = v.(int64)
		return nil
	}
	w.churn = func(tx *oodb.Txn) error {
		if w.tracing {
			w.tr.begin(spanCreateDelete)
			defer w.tr.end()
		}
		class, vals := accountFields(w.targets[0])
		oid, err := tx.New(class, vals[:]...)
		if err != nil {
			return err
		}
		return tx.Delete(oid)
	}
	w.sweep = func(tx *oodb.Txn) error {
		if _, err := w.send(tx, w.targets[0], "withdraw", int64(1)); err != nil {
			return err
		}
		for _, t := range w.targets[1:sweepSize] {
			if _, err := w.send(tx, t, "deposit", int64(1)); err != nil {
				return err
			}
		}
		return nil
	}
	w.viewMany = func(tx *oodb.Txn) error {
		for i, t := range w.targets {
			v, err := w.send(tx, t, "getbalance")
			if err != nil {
				return err
			}
			w.values[i] = v.(int64)
		}
		return nil
	}
}

// one draws and runs one transaction and, when it committed, records
// what it did. A transaction whose retries are exhausted, or that
// returns any other error, is a failed operation.
func (w *embWorker) one(tracing bool) bool {
	w.tracing = tracing
	if tracing {
		w.tr.nextTxn()
	}
	w.attempted++
	var err error
	roll := w.r.intn(100)
	switch {
	case w.hot && roll < 50:
		// The withdrawn account is drawn like the others, so sweeps meet
		// in every order and deadlocks are possible.
		for i := 0; i < sweepSize; i++ {
			w.targets[i] = w.pick.pick()
		}
		if err = w.update(w.sweep); err == nil {
			w.led.withdrew(w.targets[0])
			for _, t := range w.targets[1:sweepSize] {
				w.led.deposited(t)
			}
		}
	case w.hot:
		for i := range w.targets {
			w.targets[i] = w.pick.pick()
		}
		if err = w.readOnly(w.viewMany); err == nil {
			for i, t := range w.targets {
				w.led.viewed(t, w.values[i])
			}
		}
	case roll < 60:
		w.targets[0] = w.pick.pick()
		w.targets[1] = w.pick.pickOther(w.targets[0])
		if err = w.update(w.transfer); err == nil {
			w.led.withdrew(w.targets[0])
			w.led.deposited(w.targets[1])
		}
	case roll < 90:
		w.targets[0] = w.pick.pick()
		if err = w.readOnly(w.view); err == nil {
			w.led.viewed(w.targets[0], w.values[0])
		}
	default:
		w.targets[0] = w.pick.pick()
		err = w.update(w.churn)
	}
	if err != nil {
		w.failed++
		w.lastErr = err
		return false
	}
	return true
}

func (w *embWorker) update(fn func(*oodb.Txn) error) error {
	if w.tracing {
		w.tr.begin(spanUpdate)
		defer w.tr.end()
	}
	return w.db.Update(fn)
}

func (w *embWorker) readOnly(fn func(*oodb.Txn) error) error {
	if w.tracing {
		w.tr.begin(spanView)
		defer w.tr.end()
	}
	return w.db.View(fn)
}

// run is the timed closed loop. One transaction in latencyStride is
// timed; the same clock reading tells the worker which window it is in,
// so untimed transactions cost no clock call. In a traced run the even
// windows record spans and the odd ones do not, which pairs traced and
// untraced throughput inside one run.
func (w *embWorker) run(clk winClock, traced bool) {
	w.counts = make([]int64, clk.n)
	sleepUntil(clk.start)
	idx := 0
	w.lat.enter(0)
	for i := 0; ; i++ {
		tracing := traced && idx%2 == 0
		if i%latencyStride != 0 {
			w.one(tracing)
			w.counts[idx]++
			continue
		}
		t0 := time.Now()
		ok := w.one(tracing)
		t1 := time.Now()
		if k := clk.index(t1); k != idx {
			if k >= clk.n {
				return
			}
			idx = k
			w.lat.enter(idx)
		}
		if ok {
			w.lat.add(t1.Sub(t0).Nanoseconds())
		} else {
			w.lat.add(failedLatency)
		}
		w.counts[idx]++
	}
}

func runEmbedded(cfg *config, hot bool) (*result, error) {
	name := "embedded_mix"
	if hot {
		name = "embedded_hot"
	}
	res := &result{}
	rigs, nwin := cfg.rigs()
	tracers := newTracers(cfg.trace)
	var (
		rates []float64
		acks  ackWindows
		// Of the last rig, for the traced run, which has one.
		counts        [][]int64
		clk           winClock
		before, after counters
		heap          metric
		accounts      int
	)
	setups, err := eachRig(rigs,
		func(i int, _ string) (*embeddedRig, error) { return setupEmbedded(cfg, hot, uint64(2*i)) },
		func(i int, rig *embeddedRig) error {
			ws := rig.newWorkers(cfg, hot, uint64(2*i+1), tracers)
			accounts = len(rig.accounts)
			for _, w := range ws {
				// Room for a million transactions a second and worker, five
				// times what this box reaches; never grown.
				w.lat = newWinSamples(nwin*int(cfg.window()/time.Microsecond)/latencyStride+1024, nwin)
			}
			var err error
			if before, err = readCounters(rig.db); err != nil {
				return err
			}
			clk = winClock{start: time.Now().Add(20 * time.Millisecond), length: cfg.window(), n: nwin}
			var wg sync.WaitGroup
			for _, w := range ws {
				wg.Add(1)
				go func() { defer wg.Done(); w.run(clk, cfg.trace) }()
			}
			wg.Wait()
			if after, err = readCounters(rig.db); err != nil {
				return err
			}

			counts = nil
			var lats []*winSamples
			ledgers := append([]*ledger(nil), rig.warm...)
			for _, w := range ws {
				res.attempted += w.attempted
				res.failed += w.failed
				counts = append(counts, w.counts)
				lats = append(lats, w.lat)
				ledgers = append(ledgers, w.led)
				if w.lat.dropped > 0 {
					res.notef("latency buffer full: the last %d samples were not kept", w.lat.dropped)
				}
				if w.lastErr != nil {
					res.notef("worker error: %v", w.lastErr)
				}
			}
			rates = append(rates, windowRates(counts, clk.length)...)
			acks.add(lats, nwin)

			// Output checks: every account holds exactly what the
			// acknowledged transactions left it, every view was plausible,
			// and the churn left no instance behind.
			if err := checkFacadeLedgers(rig.db, rig.accounts, ledgers); err != nil {
				return err
			}
			if int(after.instances) != len(rig.accounts) {
				return fmt.Errorf("%d live instances, want %d: churn leaked or lost objects", int(after.instances), len(rig.accounts))
			}
			if cfg.trace {
				ws, lats, ledgers = nil, nil, nil
				rig.warm = nil
				heap = heapMetric(len(rig.accounts))
			}
			return nil
		},
		func(rig *embeddedRig) error { return rig.db.Close() })
	if err != nil {
		return nil, err
	}
	res.notef("%s windows (k txn/s), %d to a rig:%s", name, nwin, formatRates(rates))

	if cfg.trace {
		overhead := traceReport(res, name, tracers, counts, clk)
		res.add(counterMetrics(before, after, sumWindows(counts, allWindows(nwin)))...)
		res.add(acks.metrics()...)
		res.add(metric{Name: "bench.trace_overhead_pct", Unit: "%", Value: overhead, N: nwin})
		res.add(heap)
		return res, finishTrace(cfg, res, tracers, accounts)
	}

	res.add(medianMetric("setup_s", "s", setups))
	res.add(medianMetric("txn_per_s", "txn/s", rates))
	noteAck(res, acks.metrics())
	res.add(peakRSSMetric())
	return res, nil
}
