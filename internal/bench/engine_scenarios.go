package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The engine scenario family drives the whole stack — DB.Send dispatch,
// strategy lock acquisition, interpreter, store — with concurrent
// workers, so hot-path costs are proven at the transaction level rather
// than the lock-table microbench level. Two application schemas
// (banking and CAD), three operation mixes, uniform and zipf object
// popularity.

// EngineSchemaName selects the application schema of a scenario.
type EngineSchemaName string

// The scenario schemas.
const (
	EngineBanking EngineSchemaName = "banking"
	EngineCAD     EngineSchemaName = "cad"
)

// EngineWorkload selects the operation mix of an engine scenario.
type EngineWorkload string

// The mixes. Sends are top-level messages to single objects; scans are
// intentional domain scans (instances locked individually); churn is
// create+delete pairs on worker-private objects.
const (
	EngineSendHeavy  EngineWorkload = "send-heavy"  // 100% sends
	EngineScanMix    EngineWorkload = "scan-mix"    // 95% sends, 5% domain scans
	EngineChurn      EngineWorkload = "churn"       // 80% sends, 20% create+delete
	EngineReadMostly EngineWorkload = "read-mostly" // 5% scans, sends split by ReadRatio (default 90)
)

// EngineScenario is one end-to-end engine workload configuration.
type EngineScenario struct {
	Schema       EngineSchemaName
	Workload     EngineWorkload
	Dist         LockDistribution
	Workers      int
	Objects      int // shared population size (never deleted)
	OpsPerWorker int // transactions per worker (RunEngineScenario only)
	ZipfSkew     float64
	Seed         int64

	// Duration switches RunEngineScenario from a fixed op budget to a
	// fixed wall-clock run: workers commit transactions until Duration
	// elapses, after an uncounted Warmup phase whose latencies are
	// discarded. Duration-based runs make tail-latency quantiles
	// comparable across machines of different speeds.
	Duration time.Duration
	Warmup   time.Duration

	// ReadRatio, when positive, overrides the profile's send mix: that
	// percentage of send transactions use a statically read-only method,
	// the rest a writing one. Zero keeps the profile weights.
	ReadRatio int

	// SnapshotViews routes statically read-only transactions (read-only
	// sends and scans of read-only methods, per the schema's TAVs)
	// through the engine's lock-free snapshot path instead of the lock
	// table. The golden differential suite proves the two paths
	// equivalent; this knob measures what that equivalence buys.
	SnapshotViews bool

	// Durable runs the scenario on a write-ahead-logged engine rooted
	// at Dir, with the given group-commit window and sync policy — the
	// durability-cost experiment's knobs. Pipelined commits through
	// RunWithRetryPipelined with up to PipelineDepth durability futures
	// outstanding per worker (default 64), overlapping execution with
	// the group commit's fsync.
	Durable           bool
	Dir               string
	GroupCommitWindow time.Duration
	Sync              wal.SyncPolicy
	Pipelined         bool
	PipelineDepth     int

	// FaultWriteAfter, when positive, mounts a fault-injecting
	// filesystem under the redo log: the FaultWriteAfter-th filesystem
	// operation — and every write after it — fails with ENOSPC, as if
	// the disk filled up mid-run. The scenario must then fail cleanly
	// with a typed fail-stop error rather than panic or hang (Durable
	// only).
	FaultWriteAfter int64

	// NoMetrics opens the engine with the observability registry
	// stripped (engine.Options.NoMetrics). The obsoverhead experiment
	// runs each scenario both ways to price the instrumentation.
	NoMetrics bool
}

// Name renders the scenario as a benchmark-style path segment.
func (sc EngineScenario) Name() string {
	return fmt.Sprintf("%s/%s/%s/w%d", sc.Schema, sc.Workload, sc.Dist, sc.Workers)
}

// EngineScenarioResult is one measured engine scenario outcome.
type EngineScenarioResult struct {
	Scenario     EngineScenario
	Ops          int64 // committed transactions
	Sends        int64
	Scans        int64
	Churns       int64
	Deadlocks    int64
	LockRequests int64 // total lock-table requests (snapshot reads issue none)
	Wall         time.Duration
	PerSec       float64
	// Per-transaction commit-to-commit latency quantiles, recorded by
	// every worker into a shared log-bucket histogram (~±6%): the
	// convoy-effect view throughput alone hides.
	P50, P95, P99 time.Duration
}

// bankingSchema mirrors examples/banking: an account hierarchy whose
// deposit commutes with itself by escrow-style declaration.
const bankingSchema = `
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

// cadSchema mirrors examples/cad: parts with read-heavy inspections and
// occasional revisions.
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

// engineSendOp is one weighted message type of a profile. readOnly
// marks methods whose TAV is write-free (setup cross-checks the marker
// against engine.DB.SnapshotSafe): only those may take the snapshot
// path.
type engineSendOp struct {
	method   string
	weight   int
	readOnly bool
	args     func(r *rand.Rand) []engine.Value
}

// engineProfile binds a schema source to its population and mix.
type engineProfile struct {
	source       string
	overrides    func() *core.Overrides // nil for none
	classes      []string               // population classes, round-robin
	scanRoot     string                 // intentional-scan domain root
	scanMethod   string
	scanReadOnly bool // scanMethod's TAV is write-free (cross-checked in setup)
	sends        []engineSendOp
}

func engineProfileFor(name EngineSchemaName) (*engineProfile, error) {
	one := func(*rand.Rand) []engine.Value { return []engine.Value{storage.IntV(1)} }
	switch name {
	case EngineBanking:
		return &engineProfile{
			source: bankingSchema,
			overrides: func() *core.Overrides {
				ov := core.NewOverrides()
				ov.Declare("account", "deposit", "deposit")
				return ov
			},
			classes:      []string{"savings", "checking"},
			scanRoot:     "savings",
			scanMethod:   "getbalance",
			scanReadOnly: true,
			sends: []engineSendOp{
				{method: "deposit", weight: 50, args: one},
				{method: "getbalance", weight: 30, readOnly: true, args: nil},
				{method: "withdraw", weight: 20, args: one},
			},
		}, nil
	case EngineCAD:
		return &engineProfile{
			source:       cadSchema,
			classes:      []string{"part", "assembly"},
			scanRoot:     "assembly",
			scanMethod:   "inspect",
			scanReadOnly: true,
			sends: []engineSendOp{
				{method: "inspect", weight: 60, readOnly: true, args: func(r *rand.Rand) []engine.Value {
					return []engine.Value{storage.IntV(8)}
				}},
				{method: "revise", weight: 25, args: one},
				{method: "approve", weight: 15, args: nil},
			},
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown engine schema %q", name)
}

// engineWorker holds one worker's picking state and private churn pool.
type engineWorker struct {
	id      int
	rng     *rand.Rand
	zipf    *workload.ZipfPicker
	prof    *engineProfile
	sc      EngineScenario
	cumW    []int // cumulative send weights
	totW    int
	roOps   []int         // indices of read-only sends (ReadRatio partition)
	wrOps   []int         // indices of writing sends
	private []storage.OID // churn pool, owned by this worker
	futures []txn.Future  // outstanding pipelined commits, oldest first
}

// runTxn executes one transaction through the scenario's commit mode:
// blocking, or pipelined with at most PipelineDepth futures outstanding
// (the session model: keep issuing transactions while earlier fsyncs
// are in flight, but bound the unacknowledged window).
func (w *engineWorker) runTxn(db *engine.DB, fn func(*txn.Txn) error) error {
	if !w.sc.Pipelined {
		return db.RunWithRetry(fn)
	}
	fut, err := db.RunWithRetryPipelined(fn)
	if err != nil {
		return err
	}
	depth := w.sc.PipelineDepth
	if depth <= 0 {
		depth = 64
	}
	w.futures = append(w.futures, fut)
	if len(w.futures) >= depth {
		oldest := w.futures[0]
		copy(w.futures, w.futures[1:])
		w.futures = w.futures[:len(w.futures)-1]
		if err := oldest.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// drain resolves every outstanding pipelined future.
func (w *engineWorker) drain() error {
	var first error
	for _, f := range w.futures {
		if err := f.Wait(); err != nil && first == nil {
			first = err
		}
	}
	w.futures = w.futures[:0]
	return first
}

func (w *engineWorker) pickObject(objects []storage.OID) storage.OID {
	if w.zipf != nil {
		return objects[w.zipf.Pick()]
	}
	return objects[w.rng.Intn(len(objects))]
}

func (w *engineWorker) pickSend() *engineSendOp {
	if r := w.readRatio(); r > 0 && len(w.roOps) > 0 && len(w.wrOps) > 0 {
		// The ReadRatio override: r% of sends are read-only, picked
		// uniformly within their partition.
		if w.rng.Intn(100) < r {
			return &w.prof.sends[w.roOps[w.rng.Intn(len(w.roOps))]]
		}
		return &w.prof.sends[w.wrOps[w.rng.Intn(len(w.wrOps))]]
	}
	n := w.rng.Intn(w.totW)
	for i := range w.prof.sends {
		if n < w.cumW[i] {
			return &w.prof.sends[i]
		}
	}
	return &w.prof.sends[len(w.prof.sends)-1]
}

// readRatio resolves the effective read-only send percentage: the
// explicit knob, or 90 for the read-mostly workload.
func (w *engineWorker) readRatio() int {
	if w.sc.ReadRatio > 0 {
		return w.sc.ReadRatio
	}
	if w.sc.Workload == EngineReadMostly {
		return 90
	}
	return 0
}

// opKind classifies one transaction of the mix.
type opKind uint8

const (
	opSend opKind = iota
	opScan
	opChurn
)

func (w *engineWorker) pickOp() opKind {
	switch w.sc.Workload {
	case EngineScanMix, EngineReadMostly:
		if w.rng.Intn(100) < 5 {
			return opScan
		}
	case EngineChurn:
		if w.rng.Intn(100) < 20 {
			return opChurn
		}
	}
	return opSend
}

// runOp executes one transaction; the counters record what it was.
func (w *engineWorker) runOp(db *engine.DB, objects []storage.OID,
	sends, scans, churns *int64) error {
	switch w.pickOp() {
	case opScan:
		*scans++
		scanArgs := sendArgs(w.prof, w.rng, w.prof.scanMethod)
		if w.sc.SnapshotViews && w.prof.scanReadOnly {
			// Lock-free snapshot scan: never blocks (or is blocked by) the
			// writing workers — the tentpole's payoff case.
			return db.RunReadOnly(func(tx *txn.Txn) error {
				_, err := db.DomainScan(tx, w.prof.scanRoot, w.prof.scanMethod, false, nil, scanArgs...)
				return err
			})
		}
		return w.runTxn(db, func(tx *txn.Txn) error {
			_, err := db.DomainScan(tx, w.prof.scanRoot, w.prof.scanMethod, false, nil, scanArgs...)
			return err
		})
	case opChurn:
		*churns++
		cls := w.prof.classes[w.rng.Intn(len(w.prof.classes))]
		victim := w.private[w.rng.Intn(len(w.private))]
		slot := -1
		for i, oid := range w.private {
			if oid == victim {
				slot = i
				break
			}
		}
		return w.runTxn(db, func(tx *txn.Txn) error {
			in, err := db.NewInstance(tx, cls)
			if err != nil {
				return err
			}
			if err := db.DeleteInstance(tx, victim); err != nil {
				return err
			}
			w.private[slot] = in.OID
			return nil
		})
	default:
		*sends++
		op := w.pickSend()
		var args []engine.Value
		if op.args != nil {
			args = op.args(w.rng)
		}
		oid := w.pickObject(objects)
		if w.sc.SnapshotViews && op.readOnly {
			return db.RunReadOnly(func(tx *txn.Txn) error {
				_, err := db.Send(tx, oid, op.method, args...)
				return err
			})
		}
		return w.runTxn(db, func(tx *txn.Txn) error {
			_, err := db.Send(tx, oid, op.method, args...)
			return err
		})
	}
}

func sendArgs(prof *engineProfile, r *rand.Rand, method string) []engine.Value {
	for i := range prof.sends {
		if prof.sends[i].method == method && prof.sends[i].args != nil {
			return prof.sends[i].args(r)
		}
	}
	return nil
}

// engineScenarioState is a populated database plus its worker pool.
type engineScenarioState struct {
	db      *engine.DB
	objects []storage.OID
	workers []*engineWorker
	hist    LatHist // per-op latency, shared across workers
}

const churnPoolSize = 32

// setupEngineScenario compiles the schema, populates the store and
// builds the workers (including their private churn pools).
func setupEngineScenario(sc EngineScenario) (*engineScenarioState, error) {
	if sc.Workers < 1 || sc.Objects < 1 {
		return nil, fmt.Errorf("bench: engine scenario needs ≥1 worker and ≥1 object, got %+v", sc)
	}
	prof, err := engineProfileFor(sc.Schema)
	if err != nil {
		return nil, err
	}
	var opts []core.Option
	if prof.overrides != nil {
		opts = append(opts, core.WithOverrides(prof.overrides()))
	}
	compiled, err := core.CompileSource(prof.source, opts...)
	if err != nil {
		return nil, err
	}
	var fsys wal.FS
	if sc.FaultWriteAfter > 0 {
		fsys = wal.NewFaultFS(nil, wal.FaultPlan{
			FailAt:  sc.FaultWriteAfter,
			Class:   wal.FaultENOSPC,
			Persist: true,
		})
	}
	db, err := engine.OpenWithOptions(compiled, engine.Options{
		Strategy:          engine.FineCC{},
		Durable:           sc.Durable,
		Dir:               sc.Dir,
		GroupCommitWindow: sc.GroupCommitWindow,
		Sync:              sc.Sync,
		FS:                fsys,
		NoMetrics:         sc.NoMetrics,
	})
	if err != nil {
		return nil, err
	}
	st := &engineScenarioState{db: db, objects: make([]storage.OID, 0, sc.Objects)}
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < sc.Objects; i++ {
			in, err := db.NewInstance(tx, prof.classes[i%len(prof.classes)])
			if err != nil {
				return err
			}
			st.objects = append(st.objects, in.OID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Cross-check the profile's static read-only markers against the
	// engine's TAV-derived classification: a marker that disagrees would
	// silently route writers through the snapshot path (rejected at run
	// time) or readers through the lock table (benchmarking the wrong
	// thing).
	for _, clsName := range prof.classes {
		cid, ok := db.ClassID(clsName)
		if !ok {
			return nil, fmt.Errorf("bench: class %q not interned", clsName)
		}
		for _, op := range prof.sends {
			mid, ok := db.MethodID(op.method)
			if !ok {
				return nil, fmt.Errorf("bench: method %q not interned", op.method)
			}
			if got := db.SnapshotSafe(cid, mid); got != op.readOnly {
				return nil, fmt.Errorf("bench: %s.%s readOnly marker %t disagrees with TAV classification %t",
					clsName, op.method, op.readOnly, got)
			}
		}
	}
	for i := 0; i < sc.Workers; i++ {
		w := &engineWorker{
			id:   i,
			rng:  rand.New(rand.NewSource(sc.Seed + int64(i)*104729)),
			prof: prof,
			sc:   sc,
		}
		for j, op := range prof.sends {
			w.totW += op.weight
			w.cumW = append(w.cumW, w.totW)
			if op.readOnly {
				w.roOps = append(w.roOps, j)
			} else {
				w.wrOps = append(w.wrOps, j)
			}
		}
		switch sc.Dist {
		case DistUniform:
		case DistZipf:
			skew := sc.ZipfSkew
			if skew <= 1 {
				skew = 1.5
			}
			w.zipf = workload.NewZipfPicker(w.rng, sc.Objects, skew)
		default:
			return nil, fmt.Errorf("bench: unknown engine distribution %q", sc.Dist)
		}
		if sc.Workload == EngineChurn {
			err := db.RunWithRetry(func(tx *txn.Txn) error {
				for len(w.private) < churnPoolSize {
					in, err := db.NewInstance(tx, prof.classes[len(w.private)%len(prof.classes)])
					if err != nil {
						return err
					}
					w.private = append(w.private, in.OID)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		st.workers = append(st.workers, w)
	}
	return st, nil
}

// runEngineWorkers drives the workers until the shared op budget is
// exhausted and returns per-kind counters.
func (st *engineScenarioState) runEngineWorkers(totalOps int64) (sends, scans, churns int64, err error) {
	var (
		remaining atomic.Int64
		sendN     atomic.Int64
		scanN     atomic.Int64
		churnN    atomic.Int64
		wg        sync.WaitGroup
	)
	remaining.Store(totalOps)
	errs := make(chan error, len(st.workers))
	for _, w := range st.workers {
		wg.Add(1)
		go func(w *engineWorker) {
			defer wg.Done()
			var s, sc2, ch int64
			for remaining.Add(-1) >= 0 {
				t0 := time.Now()
				if err := w.runOp(st.db, st.objects, &s, &sc2, &ch); err != nil {
					errs <- err
					return
				}
				st.hist.Record(time.Since(t0))
			}
			if err := w.drain(); err != nil {
				errs <- err
				return
			}
			sendN.Add(s)
			scanN.Add(sc2)
			churnN.Add(ch)
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		return 0, 0, 0, e
	}
	return sendN.Load(), scanN.Load(), churnN.Load(), nil
}

// runEngineWorkersFor drives the workers for a fixed wall-clock
// duration (after an uncounted warmup whose latencies are discarded)
// and returns per-kind counters.
func (st *engineScenarioState) runEngineWorkersFor(warmup, duration time.Duration) (sends, scans, churns int64, err error) {
	phase := func(d time.Duration) (int64, int64, int64, error) {
		var (
			sendN, scanN, churnN atomic.Int64
			wg                   sync.WaitGroup
		)
		stop := make(chan struct{})
		timer := time.AfterFunc(d, func() { close(stop) })
		defer timer.Stop()
		errs := make(chan error, len(st.workers))
		for _, w := range st.workers {
			wg.Add(1)
			go func(w *engineWorker) {
				defer wg.Done()
				var s, sc2, ch int64
				for {
					select {
					case <-stop:
						if err := w.drain(); err != nil {
							errs <- err
							return
						}
						sendN.Add(s)
						scanN.Add(sc2)
						churnN.Add(ch)
						return
					default:
					}
					t0 := time.Now()
					if err := w.runOp(st.db, st.objects, &s, &sc2, &ch); err != nil {
						errs <- err
						return
					}
					st.hist.Record(time.Since(t0))
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			return 0, 0, 0, e
		}
		return sendN.Load(), scanN.Load(), churnN.Load(), nil
	}
	if warmup > 0 {
		if _, _, _, err := phase(warmup); err != nil {
			return 0, 0, 0, err
		}
		st.hist.Reset()
	}
	return phase(duration)
}

// RunEngineScenario runs the scenario on a fresh database and reports
// committed transactions per second — over a fixed op budget
// (Workers×OpsPerWorker), or for Scenario.Duration when set.
func RunEngineScenario(sc EngineScenario) (EngineScenarioResult, error) {
	st, err := setupEngineScenario(sc)
	if err != nil {
		return EngineScenarioResult{}, err
	}
	defer st.db.Close() //nolint:errcheck // benchmark database
	var (
		sends, scans, churns int64
		total                int64
		wall                 time.Duration
	)
	if sc.Duration > 0 {
		start := time.Now()
		sends, scans, churns, err = st.runEngineWorkersFor(sc.Warmup, sc.Duration)
		wall = time.Since(start) - sc.Warmup
		total = sends + scans + churns
	} else {
		total = int64(sc.Workers) * int64(sc.OpsPerWorker)
		start := time.Now()
		sends, scans, churns, err = st.runEngineWorkers(total)
		wall = time.Since(start)
	}
	if err != nil {
		return EngineScenarioResult{}, err
	}
	dumpMetrics(sc, st.db)
	ls := st.db.Locks().Snapshot()
	return EngineScenarioResult{
		Scenario:     sc,
		Ops:          total,
		Sends:        sends,
		Scans:        scans,
		Churns:       churns,
		Deadlocks:    ls.Deadlocks,
		LockRequests: ls.Requests,
		Wall:         wall,
		PerSec:       float64(total) / wall.Seconds(),
		P50:          st.hist.Quantile(0.50),
		P95:          st.hist.Quantile(0.95),
		P99:          st.hist.Quantile(0.99),
	}, nil
}

// DefaultEngineScenario fills the fixed parameters of the family.
func DefaultEngineScenario(schema EngineSchemaName, wl EngineWorkload,
	dist LockDistribution, workers int) EngineScenario {
	return EngineScenario{
		Schema:       schema,
		Workload:     wl,
		Dist:         dist,
		Workers:      workers,
		Objects:      4096,
		OpsPerWorker: 1500,
		ZipfSkew:     1.5,
		Seed:         42,
		// Statically read-only transactions take the lock-free snapshot
		// path by default: it is the production configuration the golden
		// differential proves equivalent, and the trajectory tracks its
		// payoff PR over PR (scan-mix no longer stalls writers).
		SnapshotViews: true,
	}
}

// EngineScenarioFamily is the sweep the enginescenarios experiment and
// BenchmarkEngineThroughput run: both schemas, every mix, both
// distributions.
func EngineScenarioFamily(workers int) []EngineScenario {
	var out []EngineScenario
	for _, schema := range []EngineSchemaName{EngineBanking, EngineCAD} {
		for _, wl := range []EngineWorkload{EngineSendHeavy, EngineScanMix, EngineChurn, EngineReadMostly} {
			for _, dist := range []LockDistribution{DistUniform, DistZipf} {
				out = append(out, DefaultEngineScenario(schema, wl, dist, workers))
			}
		}
	}
	return out
}

// metricsSink, set by favbench's -metrics flag, receives one
// Prometheus-text registry snapshot per finished engine scenario so a
// run leaves its full telemetry (per-method latency quantiles, lock
// waits, WAL batching, MVCC churn) next to the throughput numbers.
var metricsSink io.Writer

// SetMetricsSink installs the post-scenario registry dump destination
// (nil disables it).
func SetMetricsSink(w io.Writer) { metricsSink = w }

// dumpMetrics writes one scenario's final registry snapshot to the
// sink, delimited by a comment naming the scenario.
func dumpMetrics(sc EngineScenario, db *engine.DB) {
	if metricsSink == nil || db.Metrics() == nil {
		return
	}
	fmt.Fprintf(metricsSink, "# scenario %s\n", sc.Name())
	db.WriteMetrics(metricsSink) //nolint:errcheck // best-effort diagnostic dump
}

// Experiment duration overrides, set by favbench's -duration/-warmup
// flags: when positive, scenario-driving experiments run each scenario
// for a fixed wall-clock duration (with warmup) instead of a fixed op
// budget, which makes the latency quantiles comparable across machines.
var runDuration, runWarmup time.Duration

// SetDurations installs the duration-based run mode for scenario
// experiments (zero duration restores the op-budget mode).
func SetDurations(duration, warmup time.Duration) {
	runDuration, runWarmup = duration, warmup
}

// applyDurations folds the favbench-level duration flags into one
// scenario.
func applyDurations(sc EngineScenario) EngineScenario {
	if runDuration > 0 {
		sc.Duration, sc.Warmup = runDuration, runWarmup
	}
	return sc
}

func init() {
	register(&Experiment{
		ID:    "enginescenarios",
		Title: "End-to-end engine throughput: concurrent Send/DomainScan/churn mixes",
		Paper: "sections 1/7: 'exactly two lock requests per top message' only pays off if each request costs nanoseconds — measured here at the DB.Send level, not the lock table",
		Run:   runEngineScenarios,
	})
}

func runEngineScenarios(w io.Writer) error {
	t := NewTable("schema", "workload", "distribution", "workers", "txns", "deadlocks", "wall", "txn/s", "p50", "p95", "p99")
	for _, workers := range []int{1, 2, 4, 8} {
		for _, sc := range EngineScenarioFamily(workers) {
			res, err := RunEngineScenario(applyDurations(sc))
			if err != nil {
				return err
			}
			t.AddF(string(sc.Schema), string(sc.Workload), string(sc.Dist), sc.Workers,
				res.Ops, res.Deadlocks, res.Wall.Round(time.Millisecond),
				fmt.Sprintf("%.0f", res.PerSec),
				res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond),
				res.P99.Round(time.Microsecond))
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: send-heavy mixes scale with workers (uniform) because a top")
	fmt.Fprintln(w, "  message costs two integer-keyed lock requests and one slab lookup;")
	fmt.Fprintln(w, "  zipf concentrates real conflicts; churn exercises O(1) extent removal")
	return nil
}
