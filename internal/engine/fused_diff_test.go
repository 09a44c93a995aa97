package engine

import (
	"runtime"
	"strings"
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
// the optimised pipeline (superinstruction fusion + nested-send
// inlining, the default) or the compiler's base programs
// (Options.Unfused). Together with TestGoldenDifferential (which pins
// the default mode against the recorded goldens) this proves the whole
// pipeline is semantics-preserving, not just plausible.
func TestGoldenFusedUnfusedIdentical(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			compiled, err := core.CompileSource(sc.source(t))
			if err != nil {
				t.Fatal(err)
			}
			fused := runScenario(t, sc, Open(compiled, FineCC{}))

			ref, err := OpenWithOptions(compiled, Options{Strategy: FineCC{}, Unfused: true})
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

// The differential must also hold under a strategy that does NOT admit
// inlining (concurrentWriters false ⇒ fusion only): the capability gate
// itself is part of the semantics.
func TestGoldenFusedUnfusedIdenticalRW(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			compiled, err := core.CompileSource(sc.source(t))
			if err != nil {
				t.Fatal(err)
			}
			fused := runScenario(t, sc, Open(compiled, RWCC{}))
			ref, err := OpenWithOptions(compiled, Options{Strategy: RWCC{}, Unfused: true})
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

// White-box: under FineCC (concurrentWriters) the wrapper's dispatched
// program has its nested sends spliced and its deposit bodies fused,
// while a strategy without the capability keeps real sends.
func TestInlinePipelineEngaged(t *testing.T) {
	ov := core.NewOverrides()
	ov.Declare("account", "deposit", "deposit")
	ov.Declare("account", "deposit2", "deposit2")
	ov.Declare("account", "deposit", "deposit2")
	c, err := core.CompileSource(wrapperSrc, core.WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}

	fine := dispatchedProg(t, Open(c, FineCC{}), "account", "deposit2")
	if countOps(fine, schema.OpSendSelf) != 0 {
		t.Errorf("FineCC dispatch still sends: %v", fine.Code)
	}
	if countOps(fine, schema.OpNestedMark) != 2 {
		t.Errorf("OpNestedMark count = %d, want 2", countOps(fine, schema.OpNestedMark))
	}
	if countOps(fine, schema.OpIncField) != 2 {
		t.Errorf("spliced deposit bodies not fused: %v", fine.Code)
	}

	rw := dispatchedProg(t, Open(c, RWCC{}), "account", "deposit2")
	if countOps(rw, schema.OpSendSelf) != 2 {
		t.Errorf("RWCC dispatch lost its sends (inlining leaked past the capability gate): %v", rw.Code)
	}

	getter := dispatchedProg(t, Open(c, FineCC{}), "account", "getbalance")
	if countOps(getter, schema.OpReturnField) != 1 {
		t.Errorf("accessor not fused: %v", getter.Code)
	}
}

// The commuting-deposit storm through the *inlined* path: deposit2 is
// declared to commute with itself and with deposit, so FineCC runs the
// wrappers concurrently, and every deposit they perform goes through a
// spliced OpIncField instead of a nested send + frame push. N goroutines
// × M wrappers × 2 deposits of 1 must land on exactly 2*N*M — the same
// lost-update regression TestCommutingDepositsAtomic pins for the
// unfused path, now covering inlined nested sends under -race.
func TestCommutingDepositsAtomicInlined(t *testing.T) {
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
	if p := dispatchedProg(t, db, "account", "deposit2"); countOps(p, schema.OpSendSelf) != 0 {
		t.Fatalf("precondition: deposit2 not inlined: %v", p.Code)
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
		t.Fatalf("balance %v after %d inlined commuting deposits, want %d",
			got, 2*workers*wrapsEach, 2*workers*wrapsEach)
	}
	// Counter parity: every wrapper counted its two inlined sends.
	if st := db.Snapshot(); st.NestedSends != int64(2*workers*wrapsEach) {
		t.Errorf("nested-send counter %d, want %d (OpNestedMark parity)", st.NestedSends, 2*workers*wrapsEach)
	}
}

// normalizeBudget folds the one deliberate semantic divergence of the
// pipeline out of a transcript: inlining re-charges the step budget
// (spliced instructions instead of send dispatches), so a
// budget-exceeded error may name a different instruction position.
func normalizeBudget(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if idx := strings.Index(l, "ERR engine: "); idx >= 0 && strings.Contains(l, "execution exceeded step budget") {
			lines[i] = l[:idx] + "ERR engine: <pos>: execution exceeded step budget"
		}
	}
	return strings.Join(lines, "\n")
}
