package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/serv"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/oodb"
	"repro/oodb/client"
)

// The layer probes are the traced run's fixed-count loops: one
// goroutine calling one layer's public function a fixed number of
// times, for the calls a workload cannot time from outside while it
// runs (a lock acquire, a storage lookup, the wire codec, the compiler).
// They run after the workload, on a probe rig of their own — volatile
// and durable engines, and a server with one client — whose population
// is the workload's (up to probeMaxAccounts), so a lookup is
// cache-resident on embedded_hot and not on the others. Every probe is
// repeated probeRepeats times and reports the median repeat.

const (
	probeRepeats     = 5
	probeMaxAccounts = 100_000
	probeDurable     = 10_000 // accounts in the durable and the served probe databases
)

// probeNS runs body probeRepeats times; body performs iters calls and
// returns the time they took. The metric is nanoseconds per call.
func probeNS(name string, iters int, body func(iters int) time.Duration) metric {
	var per []float64
	for r := 0; r < probeRepeats; r++ {
		per = append(per, float64(body(iters).Nanoseconds())/float64(iters))
	}
	return medianMetric(name, "ns", per)
}

func addProbeMetrics(cfg *config, res *result, accounts int) error {
	n := min(accounts, probeMaxAccounts)
	iters := func(k int) int { return max(k/cfg.scale, 64) }
	r := newRNG(cfg.seed, 99)

	// The compiler: mdl -> schema -> access vectors -> commutativity.
	var probeErr error
	compile := probeNS("core.compile_ms", iters(200), func(k int) time.Duration {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if _, err := compileFacade(); err != nil {
				probeErr = err
			}
		}
		return time.Since(t0)
	})
	compile.Unit, compile.Value = "ms", compile.Value/1e6
	res.add(compile)

	// Facade: one volatile oodb database.
	schema, err := compileFacade()
	if err != nil {
		return err
	}
	fdb, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{})
	if err != nil {
		return err
	}
	faccounts, err := preloadFacade(fdb, n)
	if err != nil {
		return err
	}
	var a, b oodb.OID
	transfer := func(tx *oodb.Txn) error {
		if _, err := tx.Send(a, "withdraw", int64(1)); err != nil {
			return err
		}
		_, err := tx.Send(b, "deposit", int64(1))
		return err
	}
	res.add(probeNS("oodb.update_ns", iters(40_000), func(k int) time.Duration {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			a, b = faccounts[r.intn(n)], faccounts[r.intn(n)]
			if err := fdb.Update(transfer); err != nil {
				probeErr = err
			}
		}
		return time.Since(t0)
	}))
	if err := fdb.Close(); err != nil {
		return err
	}
	fdb, faccounts = nil, nil

	// Engine, txn, lock, storage: volatile engines with and without the
	// metrics registry.
	compiled, err := compileCore()
	if err != nil {
		return err
	}
	var sendNS [2]metric
	for i, noMetrics := range []bool{false, true} {
		db, err := engine.OpenWithOptions(compiled, engine.Options{Strategy: engine.FineCC{}, NoMetrics: noMetrics})
		if err != nil {
			return err
		}
		oids, err := preloadEngine(db, n, initialBalance)
		if err != nil {
			return err
		}
		deposit, _ := db.MethodID("deposit")
		getbalance, _ := db.MethodID("getbalance")
		one := storage.IntV(1)
		// 64 sends to an open transaction, timed; its begin and commit are not.
		sendNS[i] = probeNS("engine.send_ns", iters(64_000), func(k int) time.Duration {
			var d time.Duration
			for done := 0; done < k; done += 64 {
				tx := db.Begin()
				t0 := time.Now()
				for j := 0; j < 64; j++ {
					if _, err := db.SendID(tx, oids[r.intn(n)], deposit, one); err != nil {
						probeErr = err
					}
				}
				d += time.Since(t0)
				if err := tx.Commit(); err != nil {
					probeErr = err
				}
			}
			return d
		})
		if noMetrics {
			db.Close()
			break
		}
		res.add(sendNS[0])
		res.add(probeNS("txn.begin_commit_ns", iters(40_000), func(k int) time.Duration {
			var d time.Duration
			for j := 0; j < k; j++ {
				t0 := time.Now()
				tx := db.Begin()
				t1 := time.Now()
				if _, err := db.SendID(tx, oids[r.intn(n)], deposit, one); err != nil {
					probeErr = err
				}
				t2 := time.Now()
				if err := tx.Commit(); err != nil {
					probeErr = err
				}
				d += t1.Sub(t0) + time.Since(t2)
			}
			return d
		}))
		var target storage.OID
		view := func(tx *txn.Txn) error {
			_, err := db.SendID(tx, target, getbalance)
			return err
		}
		res.add(probeNS("engine.view_ns", iters(64_000), func(k int) time.Duration {
			t0 := time.Now()
			for j := 0; j < k; j++ {
				target = oids[r.intn(n)]
				if err := db.RunReadOnly(view); err != nil {
					probeErr = err
				}
			}
			return time.Since(t0)
		}))
		res.add(probeNS("engine.create_delete_ns", iters(96_000), func(k int) time.Duration {
			var d time.Duration
			for done := 0; done < k; done += 32 {
				tx := db.Begin()
				t0 := time.Now()
				for j := 0; j < 32; j++ {
					in, err := db.NewInstance(tx, "checking", storage.IntV(0), storage.StrV("owner"), storage.IntV(0), storage.BoolV(false), storage.IntV(0))
					if err == nil {
						err = db.DeleteInstance(tx, in.OID)
					}
					if err != nil {
						probeErr = err
					}
				}
				d += time.Since(t0)
				if err := tx.Commit(); err != nil {
					probeErr = err
				}
			}
			return d
		}))
		var sum int64
		res.add(probeNS("storage.get_ns", iters(400_000), func(k int) time.Duration {
			t0 := time.Now()
			for j := 0; j < k; j++ {
				if in, ok := db.Store.Get(oids[r.intn(n)]); ok {
					sum += in.Get(balanceSlot).I
				}
			}
			return time.Since(t0)
		}))
		if sum == 0 {
			probeErr = fmt.Errorf("storage probe read nothing")
		}
		if err := db.Close(); err != nil {
			return err
		}
	}
	tax := sendNS[0]
	tax.Name = "obs.send_tax_ns"
	tax.Value -= sendNS[1].Value
	res.add(tax)

	// Lock manager alone: uncontended acquire and release.
	lm := lock.NewManager()
	res.add(probeNS("lock.acquire_release_ns", iters(200_000), func(k int) time.Duration {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			id := lock.TxnID(j + 1)
			if _, err := lm.AcquireWait(id, lock.InstanceRes(uint64(r.intn(n))+1), lock.X); err != nil {
				probeErr = err
			}
			lm.ReleaseAll(id)
		}
		return time.Since(t0)
	}))

	if err := durableProbes(cfg, res, compiled, r, iters, &probeErr); err != nil {
		return err
	}
	if err := wireProbes(cfg, res, r, iters, &probeErr); err != nil {
		return err
	}
	return probeErr
}

// durableProbes time the commit path with a log attached, on a small
// durable engine under the run's directory.
func durableProbes(cfg *config, res *result, compiled *core.Compiled, r *rng, iters func(int) int, probeErr *error) error {
	db, err := openRestart(compiled, filepath.Join(runDir, "probe-db"), nil)
	if err != nil {
		return err
	}
	n := cfg.scaled(probeDurable)
	oids, err := preloadEngine(db, n, initialBalance)
	if err != nil {
		return err
	}
	deposit, _ := db.MethodID("deposit")
	one := storage.IntV(1)
	var pendingFutures []txn.Future
	commit := func(wait bool) (commitTime, waitTime time.Duration) {
		tx := db.Begin()
		if _, err := db.SendID(tx, oids[r.intn(n)], deposit, one); err != nil {
			*probeErr = err
		}
		t0 := time.Now()
		fut, err := tx.CommitPipelined()
		t1 := time.Now()
		if err != nil {
			*probeErr = err
			return 0, 0
		}
		if !wait {
			pendingFutures = append(pendingFutures, fut)
			return t1.Sub(t0), 0
		}
		if err := fut.Wait(); err != nil {
			*probeErr = err
		}
		return t1.Sub(t0), time.Since(t1)
	}
	// The undo->redo projection and the enqueue, not the fsync: the
	// futures are waited for outside the timed part.
	res.add(probeNS("txn.commit_durable_ns", iters(25_600), func(k int) time.Duration {
		var d time.Duration
		for done := 0; done < k; done += 256 {
			for j := 0; j < 256; j++ {
				c, _ := commit(false)
				d += c
			}
			for _, f := range pendingFutures {
				if err := f.Wait(); err != nil {
					*probeErr = err
				}
			}
			pendingFutures = pendingFutures[:0]
		}
		return d
	}))
	// One worker, one commit at a time: each wait is a whole group
	// commit of one record.
	waits := make([]int64, 0, iters(1000))
	for j := 0; j < cap(waits); j++ {
		_, w := commit(true)
		waits = append(waits, w.Nanoseconds())
	}
	slices.Sort(waits)
	res.add(metric{Name: "wal.wait_p50_us", Unit: "us", Value: float64(quantileSorted(waits, 0.5)) / 1e3, N: len(waits)})
	c, err := readCounters(engineSource{db})
	if err != nil {
		return err
	}
	res.add(metric{Name: "wal.fsync_p50_us", Unit: "us", Value: c.fsyncP50US, N: int(c.stats.WALFsyncs)})
	return db.Close()
}

// wireProbes time the codec and the framing on the transfer batch, and
// the client against a served volatile database: what a Start costs,
// and a whole round trip that waits for no disk.
func wireProbes(cfg *config, res *result, r *rng, iters func(int) int, probeErr *error) error {
	one := []storage.Value{storage.IntV(1)}
	req := serv.Request{ID: 1, Op: serv.OpTxn, Cmds: []serv.Cmd{
		{Kind: serv.CmdSend, Ref: -1, OID: 12345, Method: "withdraw", Args: one},
		{Kind: serv.CmdSend, Ref: -1, OID: 54321, Method: "deposit", Args: one},
	}}
	resp := serv.Response{ID: 1, Results: []serv.Result{
		{Kind: serv.CmdSend, Val: storage.IntV(initialBalance)}, {Kind: serv.CmdSend, Val: storage.IntV(0)},
	}}
	var buf []byte
	var dreq serv.Request
	var dresp serv.Response
	res.add(probeNS("serv.codec_ns", iters(100_000), func(k int) time.Duration {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			var err error
			if buf, err = serv.AppendRequest(buf[:0], &req); err == nil {
				err = serv.DecodeRequest(buf, &dreq)
			}
			if err == nil {
				buf, err = serv.AppendResponse(buf[:0], &resp)
			}
			if err == nil {
				err = serv.DecodeResponse(buf, &dresp, false)
			}
			if err != nil {
				*probeErr = err
			}
		}
		return time.Since(t0)
	}))
	payload, err := serv.AppendRequest(nil, &req)
	if err != nil {
		return err
	}
	var pipe bytes.Buffer
	br := bufio.NewReader(&pipe)
	var hdr [8]byte
	var frame []byte
	res.add(probeNS("serv.frame_ns", iters(200_000), func(k int) time.Duration {
		t0 := time.Now()
		for j := 0; j < k; j++ {
			err := serv.WriteFrame(&pipe, &hdr, payload)
			if err == nil {
				frame, err = serv.ReadFrame(br, serv.DefaultMaxFrame, frame)
			}
			if err != nil {
				*probeErr = err
			}
		}
		return time.Since(t0)
	}))

	schema, err := compileFacade()
	if err != nil {
		return err
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{})
	if err != nil {
		return err
	}
	n := cfg.scaled(probeDurable)
	oids, err := preloadFacade(db, n)
	if err != nil {
		return err
	}
	sock := filepath.Join(runDir, "probe.sock")
	srv, err := serv.Listen(db, "unix", sock, serv.Config{})
	if err != nil {
		return err
	}
	c, err := client.Dial(sock)
	if err != nil {
		return err
	}
	ctx := context.Background()
	view := client.NewView()
	pend := make([]*client.Pending, 0, 256)
	res.add(probeNS("client.start_ns", iters(25_600), func(k int) time.Duration {
		var d time.Duration
		for done := 0; done < k; done += 256 {
			t0 := time.Now()
			for j := 0; j < 256; j++ {
				view.Reset().Send(oids[r.intn(n)], "getbalance")
				p, err := c.Start(ctx, view)
				if err != nil {
					*probeErr = err
					continue
				}
				pend = append(pend, p)
			}
			d += time.Since(t0)
			for _, p := range pend {
				if _, err := p.Wait(); err != nil {
					*probeErr = err
				}
			}
			pend = pend[:0]
		}
		return d
	}))
	rtts := make([]int64, 0, iters(4000))
	for j := 0; j < cap(rtts); j++ {
		view.Reset().Send(oids[r.intn(n)], "getbalance")
		t0 := time.Now()
		if _, err := c.Do(ctx, view); err != nil {
			*probeErr = err
		}
		rtts = append(rtts, time.Since(t0).Nanoseconds())
	}
	slices.Sort(rtts)
	res.add(metric{Name: "client.view_rtt_us", Unit: "us", Value: float64(quantileSorted(rtts, 0.5)) / 1e3, N: len(rtts)})
	if err := c.Close(); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	return db.Close()
}
