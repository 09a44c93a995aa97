package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
)

// restart opens the engine directly (no facade, no wire) on a durable
// directory through the flush-recording filesystem and does a fixed
// amount of work, so the records written and replayed are the same from
// run to run: cycles of two timed loads of pipelined transfers, each
// ended by Sync, and a timed Checkpoint; a tail of transfers, a crash image cut — while the
// tail is still running — to the last fsynced byte of every file, and
// several timed recoveries of that image. With wire_transfer it
// separates the log from the server; it is where "checkpoint by replay
// is O(store)" is a number. The store is in memory: 400 000 accounts are
// far outside the CPU cache (the hot set of embedded_hot is inside it).
//
// Each transaction also deposits 1 into its worker's private counter
// account, so a recovered image says how many of each worker's
// transactions it holds: at least those acknowledged before the cut, at
// most those started.

const (
	restartAccounts   = 400_000
	restartWarm       = 50_000  // warm-up transfers, over both workers
	restartLoadTxns   = 150_000 // transfers per timed load, over both workers
	restartCycleLoads = 2       // timed loads per cycle, then the checkpoint; the tail is as long
	restartDepth      = 512     // pipelined commits outstanding per worker
	restartRecoveries = 5
	// The crash image is cut when worker 0 has this many tail
	// transfers left to start, so the other worker and the log's writer
	// are still busy and there are unflushed bytes to drop.
	restartCutBefore = 4096
)

type restartRig struct {
	compiled *core.Compiled
	db       *engine.DB
	fs       *flushFS
	dir      string // the database directory
	accounts []storage.OID
	counters [workers]storage.OID
	workers  []*restartWorker
}

func openRestart(c *core.Compiled, dir string, fs *flushFS) (*engine.DB, error) {
	o := engine.Options{Strategy: engine.FineCC{}, Durable: true, Dir: dir}
	if fs != nil {
		o.FS = fs
	}
	return engine.OpenWithOptions(c, o)
}

func setupRestart(cfg *config, dir string, seedStream uint64) (*restartRig, error) {
	c, err := compileCore()
	if err != nil {
		return nil, err
	}
	rig := &restartRig{compiled: c, fs: newFlushFS(), dir: filepath.Join(dir, "db")}
	if rig.db, err = openRestart(c, rig.dir, rig.fs); err != nil {
		return nil, err
	}
	n := cfg.scaled(restartAccounts)
	if rig.accounts, err = preloadEngine(rig.db, n, initialBalance); err != nil {
		return nil, err
	}
	counters, err := preloadEngine(rig.db, workers, 0)
	if err != nil {
		return nil, err
	}
	copy(rig.counters[:], counters)
	withdraw, _ := rig.db.MethodID("withdraw")
	deposit, _ := rig.db.MethodID("deposit")
	for i := 0; i < workers; i++ {
		w := &restartWorker{
			db: rig.db, accounts: rig.accounts, counter: rig.counters[i],
			withdraw: withdraw, deposit: deposit,
			ring: ring[pipelined]{buf: make([]pipelined, restartDepth)},
		}
		w.r = newRNG(cfg.seed, seedStream*16+uint64(i))
		w.pick = picker{r: w.r, n: n}
		w.transfer = func(tx *txn.Txn) error {
			one := storage.IntV(1)
			if _, err := w.send(tx, w.accounts[w.a], w.withdraw, one); err != nil {
				return err
			}
			if _, err := w.send(tx, w.accounts[w.b], w.deposit, one); err != nil {
				return err
			}
			_, err := w.send(tx, w.counter, w.deposit, one)
			return err
		}
		rig.workers = append(rig.workers, w)
	}
	if err := rig.load(cfg.scaled(restartWarm), nil, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return rig, nil
}

// preloadEngine creates n accounts holding balance, 1000 to a
// transaction.
func preloadEngine(db *engine.DB, n int, balance int64) ([]storage.OID, error) {
	oids := make([]storage.OID, 0, n)
	for base := 0; base < n; base += 1000 {
		end := min(base+1000, n)
		err := db.RunWithRetry(func(tx *txn.Txn) error {
			oids = oids[:base] // a retried attempt starts over
			for i := base; i < end; i++ {
				in, err := db.NewInstance(tx, accountClasses[i%2],
					storage.IntV(int64(i)), storage.StrV("owner"), storage.IntV(balance), storage.BoolV(false), storage.IntV(0))
				if err != nil {
					return err
				}
				oids = append(oids, in.OID)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return oids, nil
}

// pipelined is one commit whose durability has not been waited for.
type pipelined struct {
	fut    txn.Future
	issued time.Time // zero unless this transaction is timed
}

type restartWorker struct {
	db                *engine.DB
	accounts          []storage.OID
	counter           storage.OID
	withdraw, deposit schema.MethodID
	r                 *rng
	pick              picker
	a, b              int
	transfer          func(*txn.Txn) error
	ring              ring[pipelined]
	tr                *tracer
	tracing           bool
	lat               *winSamples

	// started counts commits sequenced in the log, acked those whose
	// future resolved without error. Both only grow; the crash cut reads
	// them from another goroutine.
	started, acked atomic.Int64
	failed         int64
	lastErr        error
}

func (w *restartWorker) send(tx *txn.Txn, oid storage.OID, mid schema.MethodID, arg storage.Value) (storage.Value, error) {
	if w.tracing {
		w.tr.begin(spanSend)
		defer w.tr.end()
	}
	return w.db.SendID(tx, oid, mid, arg)
}

func (w *restartWorker) settle(p pipelined) {
	if w.tracing {
		w.tr.begin(spanFutureWait)
	}
	err := p.fut.Wait()
	if w.tracing {
		w.tr.end()
	}
	if err != nil {
		w.failed++
		w.lastErr = err
	} else {
		w.acked.Add(1)
	}
	if !p.issued.IsZero() && w.lat != nil {
		if err != nil {
			w.lat.add(failedLatency)
		} else {
			w.lat.add(time.Since(p.issued).Nanoseconds())
		}
	}
}

// run starts n pipelined transfers, keeping at most restartDepth
// commits unacknowledged. cut, when set, is called once with the
// number of transfers left; drain says whether to wait for the last
// acknowledgements before returning.
func (w *restartWorker) run(n int, traced bool, cut func(left int), drain bool) {
	for i := 0; i < n; i++ {
		if cut != nil {
			cut(n - i)
		}
		w.tracing = traced
		if w.ring.full() {
			w.settle(w.ring.pop())
		}
		w.a = w.pick.pick()
		w.b = w.pick.pickOther(w.a)
		var p pipelined
		if i%latencyStride == 0 {
			p.issued = time.Now()
		}
		if traced {
			w.tr.nextTxn()
			w.tr.begin(spanUpdate)
		}
		fut, err := w.db.RunWithRetryPipelined(w.transfer)
		if traced {
			w.tr.end()
		}
		if err != nil {
			w.failed++
			w.lastErr = err
			continue
		}
		w.started.Add(1)
		p.fut = fut
		w.ring.push(p)
	}
	if drain {
		w.drain()
	}
}

func (w *restartWorker) drain() {
	for w.ring.n > 0 {
		w.settle(w.ring.pop())
	}
}

// load runs n transfers over the workers and returns when all are
// durable. cut is handed to worker 0.
func (rig *restartRig) load(n int, traced func() bool, cut func(left int)) error {
	var wg sync.WaitGroup
	for i, w := range rig.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c func(int)
			if i == 0 {
				c = cut
			}
			w.run(n/workers, traced != nil && traced(), c, cut == nil)
		}()
	}
	wg.Wait()
	if cut != nil {
		return nil // the caller drains after it has read the counts
	}
	return rig.db.Sync()
}

// crashCut is what a recovered image must be held against.
type crashCut struct {
	acked, started [workers]int64
	kept, dropped  int64
}

// cut reads the acknowledged counts, copies the flushed bytes, then
// reads the started counts: whatever the image holds of a worker's
// transactions lies between the two.
func (rig *restartRig) cut(imageDir string) (crashCut, error) {
	var c crashCut
	for i, w := range rig.workers {
		c.acked[i] = w.acked.Load()
	}
	var err error
	c.kept, c.dropped, err = rig.fs.CrashImage(rig.dir, imageDir)
	for i, w := range rig.workers {
		c.started[i] = w.started.Load()
	}
	return c, err
}

// verifyRecovered holds a database recovered from a crash image against
// the cut: instance count, ledger total, and acked <= recovered <=
// started for every worker's counter.
func (rig *restartRig) verifyRecovered(db *engine.DB, c crashCut) error {
	if got, want := db.Store.Count(), len(rig.accounts)+workers; got != want {
		return fmt.Errorf("recovered %d instances, want %d", got, want)
	}
	var total int64
	for _, oid := range rig.accounts {
		in, ok := db.Store.Get(oid)
		if !ok {
			return fmt.Errorf("account %d missing after recovery", oid)
		}
		total += in.Get(balanceSlot).I
	}
	if want := initialBalance * int64(len(rig.accounts)); total != want {
		return fmt.Errorf("recovered ledger total %d, want %d: a transfer was replayed in part", total, want)
	}
	for i, oid := range rig.counters {
		in, ok := db.Store.Get(oid)
		if !ok {
			return fmt.Errorf("counter %d missing after recovery", oid)
		}
		if err := checkAckedDurable(i, in.Get(balanceSlot).I, c.acked[i], c.started[i]); err != nil {
			return err
		}
	}
	return nil
}

func runRestart(cfg *config) (*result, error) {
	res := &result{}
	// One timed load stands for one window of -seconds.
	rigs, loads := cfg.rigs()
	loadTxns := cfg.scaled(restartLoadTxns)
	tailTxns := restartCycleLoads * loadTxns
	tracers := newTracers(cfg.trace)
	imageDir := filepath.Join(runDir, "image")
	var (
		rates, ckpts []float64
		acks         ackWindows
		tracedTxns   int64
		tracedNS     float64
		// Of the last rig: the one whose crash image is recovered and, in
		// a traced run, the only one.
		last          *restartRig
		before, after counters
		cut           crashCut
		live          int
		ckptBytes     int64
		heap          metric
	)
	setups, err := eachRig(rigs,
		func(i int, dir string) (*restartRig, error) { return setupRestart(cfg, dir, uint64(i)) },
		func(i int, rig *restartRig) error {
			last = rig
			for w, worker := range rig.workers {
				worker.lat = newWinSamples((loads+restartCycleLoads)*(loadTxns/workers/latencyStride+restartDepth), loads+1)
				if cfg.trace {
					worker.tr = tracers[w]
				}
			}
			src := engineSource{rig.db}
			var err error
			if before, err = readCounters(src); err != nil {
				return err
			}

			// Timed loads of fixed work, each timed to its last durable
			// acknowledgement; after every restartCycleLoads of them, and
			// after the last, a timed checkpoint.
			for load := 0; load < loads; load++ {
				for _, w := range rig.workers {
					w.lat.enter(load)
				}
				traced := cfg.trace && load%2 == 0
				t0 := time.Now()
				if err := rig.load(loadTxns, func() bool { return traced }, nil); err != nil {
					return err
				}
				d := time.Since(t0)
				rates = append(rates, float64(loadTxns)/d.Seconds())
				if traced {
					tracedTxns += int64(loadTxns)
					tracedNS += float64(workers) * float64(d.Nanoseconds())
				}
				if (load+1)%restartCycleLoads != 0 && load != loads-1 {
					continue
				}
				t0 = time.Now()
				if err := rig.db.Checkpoint(); err != nil {
					return fmt.Errorf("checkpoint: %w", err)
				}
				ckpts = append(ckpts, time.Since(t0).Seconds())
				// The checkpoint's scratch store is garbage now. Collecting
				// it here, outside every timed part, makes peak memory the
				// store plus one scratch store, not a matter of when the
				// collector last ran.
				runtime.GC()
			}
			if after, err = readCounters(src); err != nil {
				return err
			}
			attempted := int64(cfg.scaled(restartWarm)/workers*workers) + int64(loads)*int64(loadTxns/workers*workers)

			// The last rig runs a tail, and the crash cut is taken while it
			// runs. Worker 0 copies the image inline, so the tail is not a
			// throughput sample.
			if i == rigs-1 {
				for _, w := range rig.workers {
					w.lat.enter(loads)
				}
				var cutErr error
				err = rig.load(tailTxns, nil, func(left int) {
					if left == min(restartCutBefore, tailTxns/workers/2) {
						cut, cutErr = rig.cut(imageDir)
					}
				})
				if err == nil {
					err = cutErr
				}
				if err != nil {
					return err
				}
				for _, w := range rig.workers {
					w.drain()
				}
				if err := rig.db.Sync(); err != nil {
					return err
				}
				attempted += int64(tailTxns / workers * workers)
				res.notef("restart crash cut: %d bytes flushed and kept, %d bytes written but not flushed and dropped", cut.kept, cut.dropped)
			}
			res.attempted += attempted

			var lats []*winSamples
			for w, worker := range rig.workers {
				res.failed += worker.failed
				lats = append(lats, worker.lat)
				if worker.lastErr != nil {
					res.notef("worker %d error: %v", w, worker.lastErr)
				}
				if worker.lat.dropped > 0 {
					res.notef("latency buffer full: the last %d samples were not kept", worker.lat.dropped)
				}
			}
			acks.add(lats, loads)

			// The live database must itself pass the checks a recovered
			// image will: everything started is now acknowledged.
			var final crashCut
			for w, worker := range rig.workers {
				final.acked[w], final.started[w] = worker.acked.Load(), worker.started.Load()
				if final.acked[w] != final.started[w] {
					return fmt.Errorf("worker %d: %d commits started, %d acknowledged after the drain", w, final.started[w], final.acked[w])
				}
			}
			if err := rig.verifyRecovered(rig.db, final); err != nil {
				return fmt.Errorf("live database: %w", err)
			}
			live = rig.db.Store.Count()
			ckptInfo, err := os.Stat(filepath.Join(rig.dir, "checkpoint"))
			if err != nil {
				return err
			}
			ckptBytes = ckptInfo.Size()
			if cfg.trace {
				lats = nil
				for _, worker := range rig.workers {
					worker.lat = nil
				}
				heap = heapMetric(live)
			}
			return nil
		},
		func(rig *restartRig) error { return rig.db.Close() })
	if err != nil {
		return nil, err
	}
	res.notef("restart timed loads (k txn/s), %d to a rig:%s", loads, formatRates(rates))

	// Timed recoveries, each of an identical copy of the image.
	var recov []float64
	var records int64
	for i := 0; i < restartRecoveries; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("recover-%d", i))
		if err := copyDir(imageDir, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		db, err := openRestart(last.compiled, dir, nil)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		recov = append(recov, time.Since(t0).Seconds())
		records = db.Recovery().Records
		err = last.verifyRecovered(db, cut)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	ckpt, rec := medianMetric("wal.checkpoint_s", "s", ckpts), medianMetric("wal.recovery_s", "s", recov)
	res.notef("restart: checkpoint %.3f s (median of %d, iqr %.1f%%) of %d objects into %d bytes; recovery %.3f s (median of %d, iqr %.1f%%) replaying %d records",
		ckpt.Value, ckpt.N, 100*ckpt.Spread, live, ckptBytes, rec.Value, rec.N, 100*rec.Spread, records)

	if cfg.trace {
		ladder(res, "restart", tracers, tracedTxns, tracedNS/float64(tracedTxns))
		traced, untraced := splitTraced(allWindows(loads))
		tr, un := median(pickWindows(rates, traced)), median(pickWindows(rates, untraced))
		overhead := 100 * (1 - tr/un)
		res.notef("  tracing overhead: %.0f txn/s in traced loads against %.0f untraced = %.1f%%", tr, un, overhead)
		res.add(counterMetrics(before, after, int64(loads)*int64(loadTxns))...)
		res.add(acks.metrics()...)
		res.add(heap)
		res.add(metric{Name: "bench.trace_overhead_pct", Unit: "%", Value: overhead, N: loads})
		res.add(restartLayerMetrics(float64(live)/ckpt.Value, float64(records)/rec.Value, float64(ckptBytes), live)...)
		return res, finishTrace(cfg, res, tracers, len(last.accounts))
	}

	res.add(medianMetric("setup_s", "s", setups))
	res.add(medianMetric("txn_per_s", "txn/s", rates))
	noteAck(res, acks.metrics())
	res.add(peakRSSMetric())
	return res, nil
}

// restartLayerMetrics are the log's restart figures as rates and sizes.
// They are per-layer, not end-to-end, because only this workload has
// them and every end-to-end metric must be reported by every workload;
// the other workloads report them as 0.
func restartLayerMetrics(ckptObjPerS, replayRecPerS, ckptBytes float64, live int) []metric {
	perObject := 0.0
	if live > 0 {
		perObject = ckptBytes / float64(live)
	}
	return []metric{
		{Name: "wal.checkpoint_objects_per_s", Unit: "1/s", Value: ckptObjPerS},
		{Name: "wal.replay_records_per_s", Unit: "1/s", Value: replayRecPerS},
		{Name: "wal.checkpoint_bytes", Unit: "B", Value: ckptBytes},
		{Name: "wal.disk_bytes_per_object", Unit: "B", Value: perObject},
	}
}
