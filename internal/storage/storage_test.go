package storage

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/paperex"
	"repro/internal/schema"
)

func fig1(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.FromSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewInstanceZeroFill(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in, err := st.NewInstance(s.Class("c2"))
	if err != nil {
		t.Fatal(err)
	}
	if in.OID == 0 {
		t.Error("OID must be non-zero")
	}
	snap := in.Snapshot()
	if len(snap) != 6 {
		t.Fatalf("c2 instance has %d slots", len(snap))
	}
	if snap[0] != IntV(0) || snap[1] != BoolV(false) || snap[2] != RefV(0) {
		t.Errorf("zero fill wrong: %v", snap)
	}
	if snap[5] != StrV("") {
		t.Errorf("f6 zero = %v", snap[5])
	}
}

func TestNewInstancePositionalValues(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in, err := st.NewInstance(s.Class("c1"), IntV(42), BoolV(true))
	if err != nil {
		t.Fatal(err)
	}
	if in.Get(0) != IntV(42) || in.Get(1) != BoolV(true) {
		t.Errorf("positional init wrong: %v", in.Snapshot())
	}
}

func TestNewInstanceTypeChecks(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	if _, err := st.NewInstance(s.Class("c1"), BoolV(true)); err == nil {
		t.Error("want kind mismatch error for f1")
	} else if !strings.Contains(err.Error(), "expects integer") {
		t.Errorf("error = %v", err)
	}
	if _, err := st.NewInstance(s.Class("c1"), IntV(1), BoolV(true), RefV(0), IntV(9)); err == nil {
		t.Error("want too-many-values error")
	}
}

func TestGetSetField(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	c2 := s.Class("c2")
	in, err := st.NewInstance(c2)
	if err != nil {
		t.Fatal(err)
	}
	f5 := c2.FieldByName("f5")
	old := in.Set(c2.Slot(f5.ID), IntV(7))
	if old != IntV(0) {
		t.Errorf("old = %v", old)
	}
	got, err := in.GetField(f5.ID)
	if err != nil || got != IntV(7) {
		t.Errorf("GetField = %v, %v", got, err)
	}
	// A field not in FIELDS(c1) fails on a c1 instance.
	in1, _ := st.NewInstance(s.Class("c1"))
	if _, err := in1.GetField(f5.ID); err == nil {
		t.Error("f5 must not exist on a c1 instance")
	}
}

func TestExtents(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	c1, c2 := s.Class("c1"), s.Class("c2")
	var c1OIDs, c2OIDs []OID
	for i := 0; i < 3; i++ {
		in, _ := st.NewInstance(c1)
		c1OIDs = append(c1OIDs, in.OID)
	}
	for i := 0; i < 2; i++ {
		in, _ := st.NewInstance(c2)
		c2OIDs = append(c2OIDs, in.OID)
	}

	if got := st.Extent("c1"); len(got) != 3 {
		t.Errorf("extent(c1) = %v", got)
	}
	if got := st.Extent("c2"); len(got) != 2 {
		t.Errorf("extent(c2) = %v", got)
	}
	// Domain extent of c1 covers c1 and c2 instances.
	dom := st.DomainExtent(c1)
	if len(dom) != 5 {
		t.Errorf("domain extent = %v", dom)
	}
	if got := st.DomainExtent(c2); len(got) != 2 {
		t.Errorf("domain extent(c2) = %v", got)
	}
	if st.Count() != 5 {
		t.Errorf("count = %d", st.Count())
	}
	_ = c1OIDs
	_ = c2OIDs
}

func TestGetMissing(t *testing.T) {
	st := NewStore(fig1(t))
	if _, ok := st.Get(99); ok {
		t.Error("missing OID must not be found")
	}
}

func TestDeleteAndRestore(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	c1 := s.Class("c1")
	a, _ := st.NewInstance(c1, IntV(1))
	b, _ := st.NewInstance(c1, IntV(2))

	if err := st.Delete(a.OID); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(a.OID); ok {
		t.Error("deleted instance still present")
	}
	if got := st.Extent("c1"); len(got) != 1 || got[0] != b.OID {
		t.Errorf("extent = %v", got)
	}
	if err := st.Delete(a.OID); err == nil {
		t.Error("double delete must fail")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"42":     IntV(42),
		"true":   BoolV(true),
		`"hi"`:   StrV("hi"),
		"nil":    RefV(0),
		"ref(3)": RefV(3),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%v String = %q, want %q", v, got, want)
		}
	}
}

func TestZeroValues(t *testing.T) {
	if Zero(schema.TInt) != IntV(0) || Zero(schema.TBool) != BoolV(false) ||
		Zero(schema.TString) != StrV("") || Zero(schema.TRef) != RefV(0) {
		t.Error("zero values wrong")
	}
}

func TestConcurrentCreation(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	c1 := s.Class("c1")
	const n = 50
	var wg sync.WaitGroup
	oids := make(chan OID, 4*n)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				in, err := st.NewInstance(c1)
				if err != nil {
					t.Error(err)
					return
				}
				oids <- in.OID
			}
		}()
	}
	wg.Wait()
	close(oids)
	seen := make(map[OID]bool)
	for oid := range oids {
		if seen[oid] {
			t.Fatalf("duplicate OID %d", oid)
		}
		seen[oid] = true
	}
	if len(seen) != 4*n || st.Count() != 4*n {
		t.Errorf("created %d, store has %d", len(seen), st.Count())
	}
}

// mustPanicKind runs f and fails unless it panics with a cell-kind error.
func mustPanicKind(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
		} else if _, ok := r.(kindError); !ok {
			t.Errorf("%s: panic %v, want a kind error", what, r)
		}
	}()
	f()
}

// TestCellKindInvariant: a cell keeps no kind of its own, so every
// writer refuses a value of another kind than its slot's — creation and
// Install with an error, the in-place writers with a panic taken before
// the writer latch, which leaves the instance readable and writable.
func TestCellKindInvariant(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	c2 := s.Class("c2")
	in := newC2(t, st, s)
	want := in.Snapshot()
	for _, w := range []struct {
		name string
		slot int
		v    Value
	}{
		{"string into int", slotF1, StrV("not an int")},
		{"int into string", slotF6, IntV(7)},
		{"ref into bool", slotF2, RefV(3)},
		{"bool into escrow int", slotF4, BoolV(true)},
	} {
		mustPanicKind(t, w.name+": Set", func() { in.Set(w.slot, w.v) })
		mustPanicKind(t, w.name+": Write", func() { st.Write(in, w.slot, w.v, nil, false) })
		mustPanicKind(t, w.name+": escrow Write", func() { st.Write(in, w.slot, w.v, nil, true) })
		img := in.Snapshot()
		img[w.slot] = w.v
		mustPanicKind(t, w.name+": SetSlots", func() { in.SetSlots(img) })
		if _, err := st.Install(c2, in.OID, img); err == nil {
			t.Errorf("%s: Install over a live instance accepted it", w.name)
		}
		if _, err := st.Install(c2, 99, img); err == nil {
			t.Errorf("%s: Install of a new instance accepted it", w.name)
		}
		if _, err := st.NewInstance(c2, img[:w.slot+1]...); err == nil {
			t.Errorf("%s: NewInstance accepted it", w.name)
		}
		if _, _, err := st.NewUncommitted(1, c2, img[:w.slot+1]...); err == nil {
			t.Errorf("%s: NewUncommitted accepted it", w.name)
		}
	}
	mustPanicKind(t, "AddInt on a string slot", func() { in.AddInt(slotF6, 1) })
	mustPanicKind(t, "AddInt on a bool slot", func() { in.AddInt(slotF2, 1) })

	if got := in.Snapshot(); !slices.Equal(got, want) {
		t.Errorf("refused writes changed the instance: %v, want %v", got, want)
	}
	if st.Count() != 1 || in.VersionCount() != 0 {
		t.Errorf("refused writes left %d instances and %d records", st.Count(), in.VersionCount())
	}
	// Not wedged: the latch is free and seq even.
	if old := in.Set(slotF6, StrV("after")); old != StrV("v0") || in.Get(slotF6) != StrV("after") {
		t.Errorf("write after refusals: old %v, now %v", old, in.Get(slotF6))
	}
	if got := in.AddInt(slotF4, 5); got != IntV(5) {
		t.Errorf("AddInt after refusals = %v", got)
	}
}

// TestExtentCap: extentPos is an int32, so an extent is capped and the
// insert paths refuse past it; a delete makes room again.
func TestExtentCap(t *testing.T) {
	defer func(n int) { maxExtent = n }(maxExtent)
	maxExtent = 2
	s := fig1(t)
	st := NewStore(s)
	c1 := s.Class("c1")
	a, _ := st.NewInstance(c1)
	st.NewInstance(c1)
	if _, err := st.NewInstance(c1); err == nil {
		t.Error("NewInstance past the cap")
	}
	published := st.VersionsPublished()
	if _, _, err := st.NewUncommitted(1, c1); err == nil {
		t.Error("NewUncommitted past the cap")
	}
	if st.VersionsPublished() != published {
		t.Error("a refused creation linked a marker")
	}
	if _, err := st.Install(c1, 99, []Value{IntV(0), BoolV(false), RefV(0)}); err == nil {
		t.Error("Install past the cap")
	}
	if _, ok := st.Get(99); ok {
		t.Error("a refused Install is live")
	}
	if _, err := st.NewInstance(s.Class("c2")); err != nil {
		t.Errorf("another class's extent: %v", err)
	}
	if st.Count() != 3 || len(st.Extent("c1")) != 2 {
		t.Errorf("count %d, c1 extent %v", st.Count(), st.Extent("c1"))
	}
	if err := st.Delete(a.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := st.NewInstance(c1); err != nil {
		t.Errorf("after a delete: %v", err)
	}
}

func TestValueConversions(t *testing.T) {
	cases := []struct {
		in   any
		want Value
	}{
		{int(3), IntV(3)},
		{int64(-9), IntV(-9)},
		{true, BoolV(true)},
		{"s", StrV("s")},
		{OID(17), RefV(17)},
	}
	for _, c := range cases {
		v, err := GoToValue(c.in)
		if err != nil {
			t.Fatalf("GoToValue(%v): %v", c.in, err)
		}
		if v != c.want {
			t.Errorf("GoToValue(%v) = %+v, want %+v", c.in, v, c.want)
		}
		back := ValueToGo(v)
		if v2, err := GoToValue(back); err != nil || v2 != c.want {
			t.Errorf("ValueToGo(%+v) = %v does not convert back (err %v)", v, back, err)
		}
	}
	if _, err := GoToValue(3.14); err == nil {
		t.Error("GoToValue(float64) accepted")
	}
}
