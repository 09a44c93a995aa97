package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
)

// newFigure1DB compiles the paper's example and opens a DB on it.
func newFigure1DB(t *testing.T, s Strategy) *DB {
	t.Helper()
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	return Open(c, s)
}

// seedC2 creates one c3 helper and one c2 instance whose f3 references
// it; f2 controls whether m3 reaches out to the c3 instance.
func seedC2(t *testing.T, db *DB, f2 bool) (c2oid, c3oid storage.OID) {
	t.Helper()
	var o2, o3 storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		in3, err := db.NewInstance(tx, "c3")
		if err != nil {
			return err
		}
		o3 = in3.OID
		in2, err := db.NewInstance(tx, "c2",
			storage.IntV(10), storage.BoolV(f2), storage.RefV(o3))
		if err != nil {
			return err
		}
		o2 = in2.OID
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return o2, o3
}

func TestInterpFigure1M2WritesFields(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	in, _ := db.Store.Get(oid)
	before := in.Snapshot()

	err := db.RunWithRetry(func(tx *txn.Txn) error {
		_, err := db.Send(tx, oid, "m2", storage.IntV(5))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	after := in.Snapshot()
	if after[0] == before[0] {
		t.Error("m2 must write f1 (directly via the prefixed c1.m2)")
	}
	if after[3] == before[3] {
		t.Error("m2 must write f4")
	}
	// Reads-only fields unchanged.
	if after[1] != before[1] || after[2] != before[2] || after[4] != before[4] || after[5] != before[5] {
		t.Errorf("m2 changed unexpected fields: %v -> %v", before, after)
	}
}

func TestInterpLateBindingFromInheritedM1(t *testing.T) {
	// Sending m1 (inherited from c1) to a c2 instance must execute the
	// *overriding* m2, writing f4 — the late-binding behaviour the
	// resolution graph models.
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	in, _ := db.Store.Get(oid)

	err := db.RunWithRetry(func(tx *txn.Txn) error {
		_, err := db.Send(tx, oid, "m1", storage.IntV(1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Get(3) == storage.IntV(0) {
		t.Error("m1 on a c2 instance must reach the overriding m2 (f4 written)")
	}
}

func TestInterpRemoteSend(t *testing.T) {
	// With f2 = true, m3 sends m to the c3 instance, incrementing g1.
	db := newFigure1DB(t, FineCC{})
	c2oid, c3oid := seedC2(t, db, true)
	c3in, _ := db.Store.Get(c3oid)

	err := db.RunWithRetry(func(tx *txn.Txn) error {
		_, err := db.Send(tx, c2oid, "m3")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c3in.Get(0); got != storage.IntV(1) {
		t.Errorf("g1 = %v, want 1", got)
	}
	if db.Snapshot().RemoteSends != 1 {
		t.Errorf("RemoteSends = %d", db.Snapshot().RemoteSends)
	}
}

func TestInterpNilReference(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	var oid storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "c2", storage.IntV(0), storage.BoolV(true)) // f3 nil
		if err != nil {
			return err
		}
		oid = in.OID
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		_, err := db.Send(tx, oid, "m3")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "nil reference") {
		t.Errorf("err = %v, want nil-reference failure", err)
	}
}

const calcSchema = `
class calc is
    instance variables are
        acc : integer
        log : string
    method add(n) is
        acc := acc + n
        return acc
    end
    method fact(n) is
        if n <= 1 then
            return 1
        end
        var rest := send fact(n - 1) to self
        return n * rest
    end
    method busy(n) is
        var i := 0
        var sum := 0
        while i < n do
            i := i + 1
            if (i % 2) = 0 then
                sum := sum + i
            else
                sum := sum - i
            end
        end
        return sum
    end
    method note(s) is
        log := concat(log, s)
        return len(log)
    end
    method meta(a, b) is
        return min(abs(0 - a), max(b, 2)) + hash("x") % 2
    end
    method setlog(s) is
        log := s
    end
    method boom is
        return 1 / 0
    end
    method forever is
        while true do
            acc := acc + 1
        end
    end
end`

func newCalcDB(t *testing.T) (*DB, storage.OID) {
	t.Helper()
	c, err := core.CompileSource(calcSchema)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, FineCC{})
	var oid storage.OID
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "calc")
		if err != nil {
			return err
		}
		oid = in.OID
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, oid
}

func send1(t *testing.T, db *DB, oid storage.OID, method string, args ...Value) (Value, error) {
	t.Helper()
	var out Value
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		v, err := db.Send(tx, oid, method, args...)
		out = v
		return err
	})
	return out, err
}

func TestInterpArithmeticAndReturn(t *testing.T) {
	db, oid := newCalcDB(t)
	v, err := send1(t, db, oid, "add", storage.IntV(7))
	if err != nil || v != storage.IntV(7) {
		t.Fatalf("add = %v, %v", v, err)
	}
	v, err = send1(t, db, oid, "add", storage.IntV(5))
	if err != nil || v != storage.IntV(12) {
		t.Fatalf("second add = %v, %v", v, err)
	}
}

func TestInterpRecursion(t *testing.T) {
	db, oid := newCalcDB(t)
	v, err := send1(t, db, oid, "fact", storage.IntV(10))
	if err != nil || v != storage.IntV(3628800) {
		t.Fatalf("fact(10) = %v, %v", v, err)
	}
}

func TestInterpWhileAndBranches(t *testing.T) {
	db, oid := newCalcDB(t)
	// sum_{i=1..6} (-1)^i * i = -1+2-3+4-5+6 = 3
	v, err := send1(t, db, oid, "busy", storage.IntV(6))
	if err != nil || v != storage.IntV(3) {
		t.Fatalf("busy(6) = %v, %v", v, err)
	}
}

func TestInterpStringBuiltins(t *testing.T) {
	db, oid := newCalcDB(t)
	v, err := send1(t, db, oid, "note", storage.StrV("ab"))
	if err != nil || v != storage.IntV(2) {
		t.Fatalf("note = %v, %v", v, err)
	}
	v, err = send1(t, db, oid, "note", storage.StrV("cde"))
	if err != nil || v != storage.IntV(5) {
		t.Fatalf("note 2 = %v, %v", v, err)
	}
}

func TestInterpIntBuiltins(t *testing.T) {
	db, oid := newCalcDB(t)
	// min(abs(-3), max(1, 2)) + hash("x")%2 ∈ {2, 3}
	v, err := send1(t, db, oid, "meta", storage.IntV(3), storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 2 && v.I != 3 {
		t.Errorf("meta = %v", v)
	}
	// Determinism.
	v2, _ := send1(t, db, oid, "meta", storage.IntV(3), storage.IntV(1))
	if v != v2 {
		t.Error("builtins must be deterministic")
	}
}

func TestInterpDivisionByZero(t *testing.T) {
	db, oid := newCalcDB(t)
	_, err := send1(t, db, oid, "boom")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestInterpStepBudget(t *testing.T) {
	db, oid := newCalcDB(t)
	db.MaxSteps = 10_000
	_, err := send1(t, db, oid, "forever")
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("err = %v", err)
	}
}

func TestInterpDepthLimit(t *testing.T) {
	db, oid := newCalcDB(t)
	db.MaxDepth = 16
	_, err := send1(t, db, oid, "fact", storage.IntV(100))
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Errorf("err = %v", err)
	}
}

// Every nested self-send pushes a frame under every strategy, so a
// three-deep chain of self-sends (m1 → m2 → m3) exceeds MaxDepth 2 with
// one error, whatever the strategy's nested lock plans are.
func TestMaxDepthCountsEveryNestedSend(t *testing.T) {
	c, err := core.CompileSource(`
class chain is
    instance variables are
        x : integer
    method m1 is
        return send m2 to self
    end
    method m2 is
        return send m3 to self
    end
    method m3 is
        return x
    end
end`)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			db := Open(c, s)
			db.MaxDepth = 2
			var oid storage.OID
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				in, err := db.NewInstance(tx, "chain")
				oid = in.OID
				return err
			}); err != nil {
				t.Fatal(err)
			}
			_, err := send1(t, db, oid, "m1")
			if want := "engine: (chain,m3): send nesting exceeds 2"; err == nil || err.Error() != want {
				t.Errorf("err = %v, want %q", err, want)
			}
		})
	}
}

func TestInterpArityMismatch(t *testing.T) {
	db, oid := newCalcDB(t)
	_, err := send1(t, db, oid, "add")
	if err == nil || !strings.Contains(err.Error(), "expects 1 arguments") {
		t.Errorf("err = %v", err)
	}
}

func TestInterpUnknownMethodAndInstance(t *testing.T) {
	db, oid := newCalcDB(t)
	if _, err := send1(t, db, oid, "nosuch"); err == nil {
		t.Error("unknown method must fail")
	}
	if _, err := send1(t, db, 9999, "add", storage.IntV(1)); err == nil {
		t.Error("unknown OID must fail")
	}
}

func TestInterpTypeErrors(t *testing.T) {
	db, oid := newCalcDB(t)
	if _, err := send1(t, db, oid, "add", storage.StrV("x")); err == nil ||
		!strings.Contains(err.Error(), "different types") {
		t.Error("int + string must fail with a type error")
	}
	if _, err := send1(t, db, oid, "setlog", storage.IntV(3)); err == nil ||
		!strings.Contains(err.Error(), "cannot assign") {
		t.Error("assigning integer to string field must fail")
	}
}

func TestUndoAcrossEngine(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)
	in, _ := db.Store.Get(oid)
	before := in.Snapshot()

	tx := db.Begin()
	if _, err := db.Send(tx, oid, "m1", storage.IntV(3)); err != nil {
		t.Fatal(err)
	}
	changed := in.Snapshot()
	if changed[0] == before[0] && changed[3] == before[3] {
		t.Fatal("m1 must have written f1/f4 before abort")
	}
	tx.Abort()
	after := in.Snapshot()
	for i := range before {
		if after[i] != before[i] {
			t.Errorf("slot %d = %v after abort, want %v", i, after[i], before[i])
		}
	}
}

// Undo captures before-images only for written slots — the
// access-vector projection of the paper's recovery remark.
func TestUndoIsProjectedOnWrites(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	oid, _ := seedC2(t, db, false)

	tx := db.Begin()
	if _, err := db.Send(tx, oid, "m2", storage.IntV(1)); err != nil {
		t.Fatal(err)
	}
	// TAV(c2,m2) writes f1 and f4: exactly two before-images.
	if got := tx.UndoDepth(); got != 2 {
		t.Errorf("undo depth = %d, want 2 (projection on the write set)", got)
	}
	tx.Abort()
}

func TestDomainScanExecutesEverywhere(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	// 2 c1 instances + 1 c2 instance; m2 runs on all three via domain c1.
	var oids []storage.OID
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 2; i++ {
			in, err := db.NewInstance(tx, "c1", storage.IntV(int64(i)))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		in, err := db.NewInstance(tx, "c2", storage.IntV(9))
		if err != nil {
			return err
		}
		oids = append(oids, in.OID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		n, err = db.DomainScan(tx, "c1", "m2", true, nil, storage.IntV(5))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("scan visited %d instances, want 3", n)
	}
	// The c2 member ran the *overriding* m2: f4 must be written.
	in, _ := db.Store.Get(oids[2])
	if in.Get(3) == storage.IntV(0) {
		t.Error("overriding m2 must run on the c2 member of the domain")
	}
}

func TestDomainScanFilter(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 4; i++ {
			if _, err := db.NewInstance(tx, "c1", storage.IntV(int64(i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		n, err = db.DomainScan(tx, "c1", "m2", false,
			func(in *storage.Instance) bool { return in.Get(0).I%2 == 0 }, storage.IntV(1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("filtered scan visited %d, want 2", n)
	}
}

func TestScanErrors(t *testing.T) {
	db := newFigure1DB(t, FineCC{})
	tx := db.Begin()
	defer tx.Abort()
	if _, err := db.DomainScan(tx, "nosuch", "m1", true, nil); err == nil {
		t.Error("unknown class must fail")
	}
	if _, err := db.DomainScan(tx, "c1", "nosuch", true, nil); err == nil {
		t.Error("unknown method must fail")
	}
	if _, err := db.NewInstance(tx, "nosuch"); err == nil {
		t.Error("unknown class creation must fail")
	}
}
