package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// Hot-path microbenchmarks: the per-operation cost of the engine layers
// above the lock table (EXPERIMENTS.md "hot path cost"). Each benchmark
// keeps one transaction open so locks are warm (reentrant) and the
// measured cost is the dispatch itself, not begin/commit.

func hotDB(b *testing.B, s engine.Strategy) (*engine.DB, storage.OID) {
	b.Helper()
	db := engine.Open(compileFig1(b), s)
	var oid storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "c2", storage.IntV(1), storage.BoolV(false))
		oid = in.OID
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return db, oid
}

// One warm top-level send under the paper's protocol: method dispatch +
// two reentrant lock acquires + method body (m4 takes the short branch).
func BenchmarkHotSend(b *testing.B) {
	db, oid := hotDB(b, engine.FineCC{})
	tx := db.Begin()
	defer tx.Commit()
	args := []engine.Value{storage.IntV(1), storage.IntV(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Send(tx, oid, "m4", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// The same warm send with the metrics registry stripped: the delta vs
// BenchmarkHotSend is the entire per-send price of the observability
// layer (two clock reads plus wait-free histogram/counter adds).
func BenchmarkHotSendStripped(b *testing.B) {
	db, err := engine.OpenWithOptions(compileFig1(b), engine.Options{
		Strategy:  engine.FineCC{},
		NoMetrics: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var oid storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "c2", storage.IntV(1), storage.BoolV(false))
		oid = in.OID
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Commit()
	args := []engine.Value{storage.IntV(1), storage.IntV(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Send(tx, oid, "m4", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// The same send through the pre-interned fast path: no string touch at
// all, not even the one map lookup of the API boundary.
func BenchmarkHotSendID(b *testing.B) {
	db, oid := hotDB(b, engine.FineCC{})
	mid, ok := db.MethodID("m4")
	if !ok {
		b.Fatal("m4 not interned")
	}
	tx := db.Begin()
	defer tx.Commit()
	args := []engine.Value{storage.IntV(1), storage.IntV(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SendID(tx, oid, mid, args...); err != nil {
			b.Fatal(err)
		}
	}
}

// cadPartDB opens the cad application schema with one seeded part.
func cadPartDB(b *testing.B) (*engine.DB, storage.OID) {
	b.Helper()
	src, _, err := workload.AppSchema("cad")
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := core.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	db := engine.Open(compiled, engine.FineCC{})
	var oid storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "part",
			storage.IntV(1), storage.IntV(7))
		oid = in.OID
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return db, oid
}

// A method-body-heavy warm send: cad part.inspect runs a 32-iteration
// arithmetic loop over a field, so the measured cost is dominated by
// method-body execution, not dispatch or locking.
func BenchmarkHotSendBody(b *testing.B) {
	db, oid := cadPartDB(b)
	tx := db.Begin()
	defer tx.Commit()
	args := []engine.Value{storage.IntV(32)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Send(tx, oid, "inspect", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// A nested-send-heavy warm send: cad part.session self-sends inspect and
// revise, exercising invoke recursion plus field writes with undo.
func BenchmarkHotSendNested(b *testing.B) {
	db, oid := cadPartDB(b)
	tx := db.Begin()
	defer tx.Commit()
	args := []engine.Value{storage.IntV(8)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Send(tx, oid, "session", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// One warm hierarchical domain scan over a populated extent.
func BenchmarkHotDomainScan(b *testing.B) {
	db, _ := hotDB(b, engine.FineCC{})
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 1000; i++ {
			if _, err := db.NewInstance(tx, "c3", storage.IntV(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	tx := db.Begin()
	defer tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.DomainScan(tx, "c3", "m", true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// The same scan through the pre-interned fast path: root class and
// method resolved by dense ID, snapshot buffer reused — zero
// allocations per warm scan.
func BenchmarkHotDomainScanID(b *testing.B) {
	db, _ := hotDB(b, engine.FineCC{})
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 1000; i++ {
			if _, err := db.NewInstance(tx, "c3", storage.IntV(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cid, ok := db.ClassID("c3")
	if !ok {
		b.Fatal("c3 not interned")
	}
	mid, ok := db.MethodID("m")
	if !ok {
		b.Fatal("m not interned")
	}
	tx := db.Begin()
	defer tx.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.DomainScanID(tx, cid, mid, true, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Store dereference: the per-access object lookup under scans and sends.
func BenchmarkHotStoreGet(b *testing.B) {
	db, oid := hotDB(b, engine.FineCC{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Store.Get(oid); !ok {
			b.Fatal("lost instance")
		}
	}
}

// TestInstrumentedSendPassesGate runs the warm-send and store-get
// benchmarks on the default, instrumented open (metrics registry live,
// every dispatch recorded into its per-(class,method) histogram) and
// holds both to zero allocations per operation.
func TestInstrumentedSendPassesGate(t *testing.T) {
	// The default open must be the instrumented one, or this proof
	// would measure the stripped path.
	c, err := compiledFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if engine.Open(c, engine.FineCC{}).Metrics() == nil {
		t.Fatal("default engine.Open must enable the metrics registry")
	}
	sendRes := testing.Benchmark(BenchmarkHotSend)
	getRes := testing.Benchmark(BenchmarkHotStoreGet)
	if a := sendRes.AllocsPerOp(); a != 0 {
		t.Errorf("warm instrumented send: %d allocs/op, want 0", a)
	}
	if a := getRes.AllocsPerOp(); a != 0 {
		t.Errorf("warm store get: %d allocs/op, want 0", a)
	}
	t.Logf("instrumented HotSend: %d ns/op, HotStoreGet: %d ns/op",
		sendRes.NsPerOp(), getRes.NsPerOp())
}

// Create+delete churn: extent maintenance cost (O(n) removal before the
// slab store, O(1) swap-remove after).
func BenchmarkHotCreateDelete(b *testing.B) {
	for _, extent := range []int{1000, 32000} {
		b.Run(fmt.Sprintf("extent-%d", extent), func(b *testing.B) {
			db, _ := hotDB(b, engine.FineCC{})
			err := db.RunWithRetry(func(tx *txn.Txn) error {
				for i := 0; i < extent; i++ {
					if _, err := db.NewInstance(tx, "c3", storage.IntV(int64(i))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			tx := db.Begin()
			defer tx.Commit()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in, err := db.Store.NewInstance(db.Compiled.Schema.Class("c3"), storage.IntV(9))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := db.Store.Delete(in.OID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
