package engine

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
)

// runScenario replays one golden scenario on db and returns the
// transcript.
func runScenario(t *testing.T, sc goldenScenario, db *DB) string {
	t.Helper()
	r := &rec{t: t, db: db}
	sc.script(r)
	return r.buf.String()
}

// The fused/unfused differential: every golden scenario must produce a
// byte-for-byte identical transcript — every return value, every error
// message and position, every counter — whether the engine dispatches
// the superinstruction-fused programs (the default) or the compiler's
// base programs (Options.unfused). Together with TestGoldenDifferential
// (which pins the default mode against the recorded goldens) this
// proves fusion is semantics-preserving, not just plausible.
func TestGoldenFusedUnfusedIdentical(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			compiled, err := core.CompileSource(sc.source(t))
			if err != nil {
				t.Fatal(err)
			}
			fused := runScenario(t, sc, Open(compiled, FineCC{}))

			ref, err := OpenWithOptions(compiled, Options{Strategy: FineCC{}, unfused: true})
			if err != nil {
				t.Fatal(err)
			}
			unfused := runScenario(t, sc, ref)

			if fused != unfused {
				t.Errorf("fused and unfused transcripts diverge.\n--- fused ---\n%s\n--- unfused ---\n%s",
					fused, unfused)
			}
		})
	}
}

// The differential must also hold under a baseline strategy, whose
// nested sends take locks of their own.
func TestGoldenFusedUnfusedIdenticalRW(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			compiled, err := core.CompileSource(sc.source(t))
			if err != nil {
				t.Fatal(err)
			}
			fused := runScenario(t, sc, Open(compiled, RWCC{}))
			ref, err := OpenWithOptions(compiled, Options{Strategy: RWCC{}, unfused: true})
			if err != nil {
				t.Fatal(err)
			}
			if unfused := runScenario(t, sc, ref); fused != unfused {
				t.Errorf("fused and unfused transcripts diverge under RWCC.\n--- fused ---\n%s\n--- unfused ---\n%s",
					fused, unfused)
			}
		})
	}
}

// dispatchedProg digs the program the per-class table actually binds to
// class.method — the white-box view of what Open's pipeline produced.
func dispatchedProg(t *testing.T, db *DB, class, method string) *schema.Program {
	t.Helper()
	cls := db.Compiled.Schema.Class(class)
	if cls == nil {
		t.Fatalf("no class %s", class)
	}
	mid, ok := db.rt.MethodID(method)
	if !ok {
		t.Fatalf("no method %s", method)
	}
	p := db.rt.class(cls).progAt(mid)
	if p == nil {
		t.Fatalf("no program for %s.%s", class, method)
	}
	return p
}

const wrapperSrc = `
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method deposit2(n) is
        send deposit(n) to self
        send deposit(n) to self
    end
    method getbalance is
        return balance
    end
end`

func countOps(p *schema.Program, op schema.Op) int {
	n := 0
	for _, ins := range p.Code {
		if ins.Op == op {
			n++
		}
	}
	return n
}

// White-box: the dispatch tables bind the fused programs — the deposit
// body is one OpIncField and the getter one OpReturnField.
func TestInlinePipelineEngaged(t *testing.T) {
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	ov.Declare("account", "deposit2", "deposit2")
	ov.Declare("account", "deposit", "deposit2")
	c, err := core.CompileSource(wrapperSrc, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}

	deposit := dispatchedProg(t, Open(c, FineCC{}), "account", "deposit")
	if countOps(deposit, schema.OpIncField) != 1 {
		t.Errorf("deposit body not fused: %v", deposit.Code)
	}

	getter := dispatchedProg(t, Open(c, FineCC{}), "account", "getbalance")
	if countOps(getter, schema.OpReturnField) != 1 {
		t.Errorf("accessor not fused: %v", getter.Code)
	}
}

// The commuting-deposit storm through nested sends: deposit2 is
// declared to commute with itself and with deposit, so FineCC runs the
// wrappers concurrently, and every deposit they perform is a nested
// self-send whose frame runs under the wrapper's execution latch.
// N goroutines × M wrappers × 2 deposits of 1 must land on exactly
// 2*N*M — the lost-update regression TestCommutingDepositsAtomic pins
// for top-level deposits, here for nested ones under -race.
func TestCommutingDepositsAtomicNested(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	ov.Declare("account", "deposit2", "deposit2")
	ov.Declare("account", "deposit", "deposit2")
	c, err := core.CompileSource(wrapperSrc, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, FineCC{})
	if p := dispatchedProg(t, db, "account", "deposit2"); countOps(p, schema.OpSendSelf) != 2 {
		t.Fatalf("precondition: deposit2 must dispatch two nested sends: %v", p.Code)
	}
	var oid storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "account")
		oid = in.OID
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const wrapsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < wrapsEach; i++ {
				if err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.Send(tx, oid, "deposit2", storage.IntV(1))
					return err
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var got Value
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		got, err = db.Send(tx, oid, "getbalance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != storage.IntV(2*workers*wrapsEach) {
		t.Fatalf("balance %v after %d nested commuting deposits, want %d",
			got, 2*workers*wrapsEach, 2*workers*wrapsEach)
	}
	// Counter parity: every wrapper counted its two nested sends.
	if st := db.Snapshot(); st.NestedSends != int64(2*workers*wrapsEach) {
		t.Errorf("nested-send counter %d, want %d", st.NestedSends, 2*workers*wrapsEach)
	}
}
