package oodb

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/paperex"
)

func compileFig1(t *testing.T, opts ...Option) *Schema {
	t.Helper()
	s, err := Compile(paperex.Figure1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompileAndIntrospect(t *testing.T) {
	s := compileFig1(t)
	if got := s.Classes(); len(got) != 3 || got[0] != "c1" {
		t.Errorf("Classes = %v", got)
	}
	if got := s.Methods("c2"); strings.Join(got, ",") != "m1,m2,m3,m4" {
		t.Errorf("Methods(c2) = %v", got)
	}
	if got := s.Fields("c2"); strings.Join(got, ",") != "f1,f2,f3,f4,f5,f6" {
		t.Errorf("Fields(c2) = %v", got)
	}
	av, err := s.AccessVector("c2", "m1")
	if err != nil {
		t.Fatal(err)
	}
	if av != "(Write f1, Read f2, Read f3, Write f4, Read f5, Null f6)" {
		t.Errorf("AccessVector(c2,m1) = %s", av)
	}
	if ok, _ := s.Commute("c2", "m2", "m4"); !ok {
		t.Error("m2/m4 must commute")
	}
	if ok, _ := s.Commute("c2", "m1", "m2"); ok {
		t.Error("m1/m2 must conflict")
	}
	tbl, err := s.CommutativityTable("c2")
	if err != nil || !strings.Contains(tbl, "m4") {
		t.Errorf("table: %v\n%s", err, tbl)
	}
	dot, err := s.ResolutionGraphDot("c2")
	if err != nil || !strings.Contains(dot, "c2_m1 -> c2_m2") {
		t.Errorf("dot: %v\n%s", err, dot)
	}
}

func TestIntrospectionErrors(t *testing.T) {
	s := compileFig1(t)
	if _, err := s.AccessVector("zz", "m1"); err == nil {
		t.Error("unknown class")
	}
	if _, err := s.AccessVector("c1", "zz"); err == nil {
		t.Error("unknown method")
	}
	if _, err := s.Commute("zz", "a", "b"); err == nil {
		t.Error("unknown class commute")
	}
	if _, err := s.Commute("c1", "m1", "zz"); err == nil {
		t.Error("unknown method commute")
	}
	if _, err := s.CommutativityTable("zz"); err == nil {
		t.Error("unknown class table")
	}
	if _, err := s.ResolutionGraphDot("zz"); err == nil {
		t.Error("unknown class dot")
	}
	if s.Methods("zz") != nil || s.Fields("zz") != nil {
		t.Error("unknown class lists must be nil")
	}
}

func TestOpenUnknownStrategy(t *testing.T) {
	s := compileFig1(t)
	if _, err := Open(s, Strategy("bogus")); err == nil {
		t.Error("unknown strategy must fail")
	}
	if len(Strategies()) != 6 {
		t.Error("six strategies expected")
	}
	for _, s := range Strategies() {
		if _, err := Open(compileFig1(t), s); err != nil {
			t.Errorf("Open(%s): %v", s, err)
		}
	}
}

func TestUpdateSendRoundTrip(t *testing.T) {
	s := compileFig1(t)
	db, err := Open(s, Fine)
	if err != nil {
		t.Fatal(err)
	}
	var oid OID
	err = db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("c2", 5, false)
		if err != nil {
			return err
		}
		_, err = tx.Send(oid, "m2", 42)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.DumpObject(&buf, oid); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "c2#") || !strings.Contains(buf.String(), "f4:") {
		t.Errorf("dump = %s", buf.String())
	}
	if err := db.DumpObject(&buf, 999); err == nil {
		t.Error("dump of missing object must fail")
	}
}

func TestBeginCommitAbort(t *testing.T) {
	s := compileFig1(t)
	db, err := Open(s, Fine)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	oid, err := tx.New("c1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := db.Begin()
	if _, err := tx2.Send(oid, "m2", 1); err != nil {
		t.Fatal(err)
	}
	tx2.Abort()
	// After the abort, f1 is back to 7.
	var buf bytes.Buffer
	if err := db.DumpObject(&buf, oid); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "f1: 7") {
		t.Errorf("abort did not restore f1: %s", buf.String())
	}
}

func TestArgumentConversions(t *testing.T) {
	s := compileFig1(t)
	db, _ := Open(s, Fine)
	err := db.Update(func(tx *Txn) error {
		c3, err := tx.New("c3")
		if err != nil {
			return err
		}
		// int, int64, bool, string, OID all convert.
		if _, err := tx.New("c2", int64(1), true, c3); err != nil {
			return err
		}
		if _, err := tx.New("c2", 1, false); err != nil {
			return err
		}
		_, err = tx.New("c2", 1, false, c3, 2, 3, "label")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx *Txn) error {
		_, err := tx.New("c1", 3.14)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported argument") {
		t.Errorf("float must be rejected: %v", err)
	}
}

func TestScanSend(t *testing.T) {
	s := compileFig1(t)
	db, _ := Open(s, Fine)
	err := db.Update(func(tx *Txn) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.New("c1", i); err != nil {
				return err
			}
		}
		_, err := tx.New("c2", 9)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	err = db.Update(func(tx *Txn) error {
		var err error
		n, err = tx.ScanSend("c1", "m2", true, 5)
		return err
	})
	if err != nil || n != 4 {
		t.Fatalf("scan visited %d (%v), want 4", n, err)
	}

	// Non-hierarchical scans visit the same instances but lock them
	// individually instead of the classes as wholes.
	err = db.Update(func(tx *Txn) error {
		var err error
		n, err = tx.ScanSend("c1", "m3", false)
		return err
	})
	if err != nil || n != 4 {
		t.Fatalf("intentional scan visited %d (%v), want 4", n, err)
	}
}

func TestStatsCumulative(t *testing.T) {
	s := compileFig1(t)
	db, _ := Open(s, Fine)
	err := db.Update(func(tx *Txn) error {
		oid, err := tx.New("c2", 1, false)
		if err != nil {
			return err
		}
		_, err = tx.Send(oid, "m1", 2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Committed != 1 || st.TopSends != 1 || st.NestedSends != 3 || st.LockRequests == 0 {
		t.Errorf("stats = %+v", st)
	}
	// Counters only grow: a failed update adds to the totals, and a
	// phase is measured by subtracting the reading taken before it.
	if err := db.Update(func(tx *Txn) error {
		return errors.New("roll back")
	}); err == nil {
		t.Fatal("failing update committed")
	}
	after := db.Stats()
	if after.Committed != st.Committed || after.Aborted-st.Aborted != 1 || after.LockRequests < st.LockRequests {
		t.Errorf("counters not cumulative: before %+v, after %+v", st, after)
	}
}

func TestWithCommuting(t *testing.T) {
	const src = `
class counter is
    instance variables are
        n : integer
    method incr(d) is
        n := n + d
    end
    method read is
        return n
    end
end`
	s, err := Compile(src, WithCommuting("counter", "incr", "incr"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Commute("counter", "incr", "incr"); !ok {
		t.Error("escrow declaration must make incr self-commuting")
	}
	if ok, _ := s.Commute("counter", "incr", "read"); ok {
		t.Error("incr/read must still conflict")
	}

	// And it actually admits concurrent increments on one instance: no
	// transaction ever blocks. (Ad hoc commutativity asserts semantic
	// compatibility; physically atomic escrow journaling — O'Neil [20] —
	// is the application's responsibility, so the total is not asserted.)
	db, _ := Open(s, Fine)
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("counter", 0)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				err := db.Update(func(tx *Txn) error {
					_, err := tx.Send(oid, "incr", 1)
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var out any
	if err := db.Update(func(tx *Txn) error {
		var err error
		out, err = tx.Send(oid, "read")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n, ok := out.(int64); !ok || n < 1 || n > 100 {
		t.Errorf("counter = %v, want 1..100", out)
	}
	if st := db.Stats(); st.Blocks != 0 || st.Deadlocks != 0 {
		t.Errorf("escrow increments must not block each other: %+v", st)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := Compile("class a is method m is x := 1 end end"); err == nil {
		t.Error("bad source must fail")
	}
}

func TestDeleteThroughFacade(t *testing.T) {
	s := compileFig1(t)
	db, _ := Open(s, Fine)
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("c1", 7)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Update(func(tx *Txn) error {
		return tx.Delete(oid)
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.DumpObject(&buf, oid); err == nil {
		t.Error("deleted object must be gone")
	}
	// Scans no longer see it.
	var n int
	if err := db.Update(func(tx *Txn) error {
		var err error
		n, err = tx.ScanSend("c1", "m2", true, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("scan visited %d, want 0", n)
	}
}

// View runs on the lock-free snapshot path: reads see committed state,
// writes of any kind are rejected with IsSnapshotWrite, and the whole
// transaction issues zero lock-table requests.
func TestViewSnapshotReads(t *testing.T) {
	s, err := Compile(`
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method getbalance is
        return balance
    end
end`)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(s, Fine)
	if err != nil {
		t.Fatal(err)
	}
	var acct OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		acct, err = tx.New("account", int64(100))
		if err != nil {
			return err
		}
		_, err = tx.Send(acct, "deposit", int64(10))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	before := db.Stats()
	if err := db.View(func(tx *Txn) error {
		got, err := tx.Send(acct, "getbalance")
		if err != nil {
			return err
		}
		if got != int64(110) {
			t.Errorf("getbalance = %v, want 110", got)
		}
		if _, err := tx.Send(acct, "deposit", int64(1)); !IsSnapshotWrite(err) {
			t.Errorf("snapshot deposit err = %v", err)
		}
		if _, err := tx.New("account", int64(0)); !IsSnapshotWrite(err) {
			t.Errorf("snapshot New err = %v", err)
		}
		if err := tx.Delete(acct); !IsSnapshotWrite(err) {
			t.Errorf("snapshot Delete err = %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.LockRequests != before.LockRequests {
		t.Errorf("View issued %d lock requests", after.LockRequests-before.LockRequests)
	}
	if after.Snapshots != before.Snapshots+1 {
		t.Errorf("Snapshots = %d, want %d", after.Snapshots, before.Snapshots+1)
	}
	// The rejected writes left nothing behind.
	if err := db.View(func(tx *Txn) error {
		got, err := tx.Send(acct, "getbalance")
		if got != int64(110) {
			t.Errorf("balance after rejected writes = %v, want 110", got)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}
