package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

// minAllocsPerRun is AllocsPerRun with retries: on a loaded host (or
// under -race) a background allocation — GC bookkeeping, a runtime
// timer, another test's goroutine — occasionally lands inside the
// measured window and reports a fractional alloc/op for a path that is
// genuinely allocation-free. The claim these tests pin is "the path
// itself does not allocate", so the minimum over a few attempts is the
// right statistic: noise only ever adds.
func minAllocsPerRun(runs int, f func()) float64 {
	const attempts = 5
	best := testing.AllocsPerRun(runs, f)
	for i := 1; i < attempts && best != 0; i++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
	}
	return best
}

// The hot-path allocation budget (ISSUE 2 acceptance): once locks are
// warm, walking a fine-CC top-send plan and a whole DB.Send perform zero
// heap allocations. testing.AllocsPerRun is exact, so any regression —
// a mode boxed per call, a context or frame allocated per send, a
// string materialised per resource — fails here, not in a profile.

func TestTopSendDispatchZeroAllocs(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)

	tx := db.Begin()
	defer tx.Commit()
	mid, ok := db.MethodID("m3")
	if !ok {
		t.Fatal("m3 not interned")
	}
	plan := db.Runtime().class(db.Compiled.Schema.Class("c2")).plans[mid].top
	a := liveAcquirer{locks: db.Locks(), txn: tx.ID}

	// Warm: the first walk takes the instance and class locks.
	if err := plan.acquire(&a, uint64(oid)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := plan.acquire(&a, uint64(oid)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm FineCC top-send plan allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWarmSendZeroAllocs(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	// The default Open is the instrumented one, so this bound covers the
	// per-send metrics recording, not a stripped path.
	if db.Metrics() == nil {
		t.Fatal("default Open must enable the metrics registry")
	}
	oid, _ := seedC2(t, db, false)

	tx := db.Begin()
	defer tx.Commit()
	// m3 on the seeded instance reads f2 (false) and stops: dispatch,
	// two reentrant lock requests, interpreter, no writes.
	if _, err := db.Send(tx, oid, "m3"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.Send(tx, oid, "m3"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DB.Send allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWarmSendIDZeroAllocs(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	mid, ok := db.MethodID("m3")
	if !ok {
		t.Fatal("m3 not interned")
	}
	tx := db.Begin()
	defer tx.Commit()
	if _, err := db.SendID(tx, oid, mid); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.SendID(tx, oid, mid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DB.SendID allocates %.1f objects/op, want 0", allocs)
	}
}

// A compiled method body with real control flow — while loop, locals,
// arithmetic over a field — must execute without heap allocation once
// warm: frames are spans of the context's pooled value stack, and every
// instruction is integer-addressed (ISSUE 3 acceptance).
func TestWarmSendIDCompiledBodyZeroAllocs(t *testing.T) {
	c, err := core.CompileSource(`
class worker is
    instance variables are
        load : integer
    method crunch(n) is
        var i := 0
        var acc := 0
        while i < n do
            i := i + 1
            if (i % 2) = 0 and load > 0 then
                acc := acc + load * i
            else
                acc := acc - i
            end
        end
        return acc
    end
end`)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, FineCC{})
	var oid storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "worker", storage.IntV(3))
		oid = in.OID
		return err
	}); err != nil {
		t.Fatal(err)
	}
	mid, ok := db.MethodID("crunch")
	if !ok {
		t.Fatal("crunch not interned")
	}
	tx := db.Begin()
	defer tx.Commit()
	args := []Value{storage.IntV(24)}
	if _, err := db.SendID(tx, oid, mid, args...); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.SendID(tx, oid, mid, args...); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm compiled-body SendID allocates %.1f objects/op, want 0", allocs)
	}
}

// Warm DomainScanID — root class and method resolved by ID, snapshot
// buffer reused — must not allocate, hierarchically or intentionally
// (ROADMAP leftover from PR 2: the scan used to cost one [][]OID header
// per call plus two string resolutions).
func TestWarmDomainScanIDZeroAllocs(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 64; i++ {
			if _, err := db.NewInstance(tx, "c3", storage.IntV(int64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cid, ok := db.ClassID("c3")
	if !ok {
		t.Fatal("c3 not interned")
	}
	mid, ok := db.MethodID("m")
	if !ok {
		t.Fatal("m not interned")
	}
	for _, hier := range []bool{true, false} {
		name := "intentional"
		if hier {
			name = "hierarchical"
		}
		t.Run(name, func(t *testing.T) {
			tx := db.Begin()
			defer tx.Commit()
			if _, err := db.DomainScanID(tx, cid, mid, hier, nil); err != nil {
				t.Fatal(err)
			}
			allocs := minAllocsPerRun(100, func() {
				n, err := db.DomainScanID(tx, cid, mid, hier, nil)
				if err != nil {
					t.Fatal(err)
				}
				if n != 64 {
					t.Fatalf("visited %d, want 64", n)
				}
			})
			if allocs != 0 {
				t.Errorf("warm DomainScanID allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// DomainScanID agrees with the string-resolved DomainScan.
func TestDomainScanIDMatchesDomainScan(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 5; i++ {
			if _, err := db.NewInstance(tx, "c1", storage.IntV(int64(i))); err != nil {
				return err
			}
		}
		_, err := db.NewInstance(tx, "c2", storage.IntV(9))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cid, _ := db.ClassID("c1")
	mid, _ := db.MethodID("m2")
	var byName, byID int
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		byName, err = db.DomainScan(tx, "c1", "m2", true, nil, storage.IntV(1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		byID, err = db.DomainScanID(tx, cid, mid, true, nil, storage.IntV(1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if byName != byID || byName != 6 {
		t.Errorf("DomainScan visited %d, DomainScanID visited %d, want 6 both", byName, byID)
	}
	if _, err := db.DomainScanID(db.Begin(), 999, mid, true, nil); err == nil {
		t.Error("unknown class id must fail")
	}
	cid3, _ := db.ClassID("c3")
	mid4, _ := db.MethodID("m4")
	tx := db.Begin()
	defer tx.Abort()
	if _, err := db.DomainScanID(tx, cid3, mid4, true, nil); err == nil {
		t.Error("method not in METHODS(c3) must fail")
	}
}

// The ISSUE 4 satellite: whole warm transactions are allocation-free.
// txn.Manager pools Txn (undo slice, dedup map, created list included)
// through RunWithRetry, so a begin→send→commit roundtrip — including a
// field write with its undo capture — performs zero heap allocations
// once warm.
func TestWarmTxnRoundtripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	// m2 on c2 writes f1 and f4: dispatch, locks, two undo captures,
	// commit with undo clearing, transaction recycled.
	mid, ok := db.MethodID("m2")
	if !ok {
		t.Fatal("m2 not interned")
	}
	args := []Value{storage.IntV(3)}
	fn := func(tx *txn.Txn) error {
		_, err := db.SendID(tx, oid, mid, args...)
		return err
	}
	if err := db.RunWithRetry(fn); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := db.RunWithRetry(fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm begin→send→commit allocates %.1f objects/op, want 0", allocs)
	}
}

// Version records are the other thing a writing transaction takes:
// while a snapshot reader is registered nothing on the written
// instance's chain can be recycled, so each warm transaction's records
// come from the store's arena (one block per 256 records) and the chain
// grows. Once the reader ends, the next transaction prunes the whole
// chain onto the instance's free list and warm transactions are back to
// zero allocations.
func TestWarmUpdateBesideSnapshotZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	in, _ := db.Store.Get(oid)
	mid, _ := db.MethodID("m2") // writes f1 and f4: two records a transaction
	args := []Value{storage.IntV(3)}
	fn := func(tx *txn.Txn) error {
		_, err := db.SendID(tx, oid, mid, args...)
		return err
	}
	run := func() {
		if err := db.RunWithRetry(fn); err != nil {
			t.Fatal(err)
		}
	}
	run()

	const pinned = 600
	reader := db.BeginSnapshot()
	beside := testing.AllocsPerRun(pinned, run)
	if got := in.VersionCount(); got < 2*pinned {
		t.Errorf("chain holds %d records beside a pinned reader, want at least %d", got, 2*pinned)
	}
	if beside >= 0.1 {
		t.Errorf("warm update beside a snapshot allocates %.2f objects/op, want arena blocks only (< 0.1)", beside)
	}
	reader.Close()

	run() // prunes everything the reader pinned
	if got := in.VersionCount(); got > 4 {
		t.Errorf("chain holds %d records after the reader ended, want it collapsed", got)
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("warm update after the reader ended allocates %.1f objects/op, want 0", allocs)
	}
}

// Read-only roundtrips stay allocation-free too (no undo, no redo).
func TestWarmTxnReadRoundtripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	mid, ok := db.MethodID("m3")
	if !ok {
		t.Fatal("m3 not interned")
	}
	fn := func(tx *txn.Txn) error {
		_, err := db.SendID(tx, oid, mid)
		return err
	}
	if err := db.RunWithRetry(fn); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := db.RunWithRetry(fn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm read-only roundtrip allocates %.1f objects/op, want 0", allocs)
	}
}

// The PR 6 satellite: pipelined durable commits are allocation-free
// once warm. The durability ticket a pipelined commit hands out is a
// pooled single-waiter wal.Future recycled by its Wait, the commit
// record is built in the transaction's pooled scratch, and the group
// commit writer reuses its batch buffer — so a warm
// begin→send→commit→Wait roundtrip on a logged database performs zero
// heap allocations, same as the volatile roundtrip above.
func TestWarmPipelinedTxnRoundtripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenWithOptions(c, Options{
		Strategy: FineCC{},
		Durable:  true,
		Dir:      t.TempDir(),
		Sync:     wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oid, _ := seedC2(t, db, false)
	mid, ok := db.MethodID("m2")
	if !ok {
		t.Fatal("m2 not interned")
	}
	args := []Value{storage.IntV(3)}
	fn := func(tx *txn.Txn) error {
		_, err := db.SendID(tx, oid, mid, args...)
		return err
	}
	roundtrip := func() {
		fut, err := db.RunWithRetryPipelined(fn)
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools (txn, future, commit record) and the writer's
	// batch buffer before counting.
	for i := 0; i < 64; i++ {
		roundtrip()
	}
	allocs := testing.AllocsPerRun(200, roundtrip)
	if allocs != 0 {
		t.Errorf("warm pipelined durable roundtrip allocates %.1f objects/op, want 0", allocs)
	}
}

// The PR 10 acceptance: the context plumbing adds no heap traffic to
// the warm path. context.Background().Done() is nil, so RunWithRetryCtx
// delegates to the context-free loop; a live cancelable context binds
// its done channel into the transaction, but on an uncontended send the
// channel is only ever selected on, never allocated against. Both
// shapes must match the context-free roundtrip's zero.
func TestWarmCtxTxnRoundtripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	mid, ok := db.MethodID("m2")
	if !ok {
		t.Fatal("m2 not interned")
	}
	args := []Value{storage.IntV(3)}
	fn := func(tx *txn.Txn) error {
		_, err := db.SendID(tx, oid, mid, args...)
		return err
	}
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{
		{"background", context.Background()},
		{"cancelable", cancelable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := db.RunWithRetryCtx(tc.ctx, fn); err != nil {
				t.Fatal(err)
			}
			allocs := minAllocsPerRun(200, func() {
				if err := db.RunWithRetryCtx(tc.ctx, fn); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("warm ctx roundtrip (%s) allocates %.1f objects/op, want 0", tc.name, allocs)
			}
		})
	}
}

// Sanity: the zero-alloc paths still do their locking job — the warm
// send holds the instance and class granules it claims to.
func TestWarmSendStillLocks(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	tx := db.Begin()
	defer tx.Commit()
	if _, err := db.Send(tx, oid, "m3"); err != nil {
		t.Fatal(err)
	}
	if got := db.Locks().LocksHeld(tx.ID); got != 2 {
		t.Errorf("warm send holds %d locks, want 2 (instance + class)", got)
	}
}

// Deletion churn must stay O(1): the compensation path (delete, abort,
// restore) keeps extents and the slab table consistent.
func TestDeleteRestoreChurnConsistency(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	var oids []storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 64; i++ {
			in, err := db.NewInstance(tx, "c1", storage.IntV(int64(i)))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Delete every other instance, then abort: all must come back.
	tx := db.Begin()
	for i := 0; i < len(oids); i += 2 {
		if err := db.DeleteInstance(tx, oids[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(db.Store.Extent("c1")); got != 32 {
		t.Fatalf("extent after deletes = %d, want 32", got)
	}
	tx.Abort()
	ext := db.Store.Extent("c1")
	if len(ext) != 64 {
		t.Fatalf("extent after abort = %d, want 64", len(ext))
	}
	seen := make(map[storage.OID]bool, len(ext))
	for _, oid := range ext {
		if seen[oid] {
			t.Fatalf("OID %d appears twice in extent", oid)
		}
		seen[oid] = true
	}
	for _, oid := range oids {
		if !seen[oid] {
			t.Errorf("OID %d missing after abort", oid)
		}
	}
}
