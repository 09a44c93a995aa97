package core

import (
	"strings"
	"testing"

	"repro/internal/paperex"
)

// TestTable2Commutativity checks the commutativity relation of class c2
// cell by cell against Table 2 of the paper.
func TestTable2Commutativity(t *testing.T) {
	c := compileFigure1(t)
	tbl := c.Class("c2").Table
	for a, row := range paperex.Table2 {
		for b, want := range row {
			if got := tbl.Commutes(a, b); got != want {
				t.Errorf("commute(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// The paper: "Commutativity relation of class c1 is obtained, in this
// example, as the restriction of Table 2 to m1, m2, and m3."
func TestTable2RestrictionIsC1(t *testing.T) {
	c := compileFigure1(t)
	c1tbl := c.Class("c1").Table
	c2tbl := c.Class("c2").Table
	for _, a := range []string{"m1", "m2", "m3"} {
		for _, b := range []string{"m1", "m2", "m3"} {
			if c1tbl.Commutes(a, b) != c2tbl.Commutes(a, b) {
				t.Errorf("restriction mismatch at (%s,%s): c1=%v c2=%v",
					a, b, c1tbl.Commutes(a, b), c2tbl.Commutes(a, b))
			}
		}
	}
	r := c2tbl.Restrict([]string{"m1", "m2", "m3"})
	if len(r) != 9 {
		t.Errorf("restriction has %d cells", len(r))
	}
}

// Commutativity of access modes must be exactly the commutativity of the
// underlying TAVs ("the parallelism which is allowed by access modes is
// exactly the one which is permitted by access vectors", section 5.1).
func TestTableMatchesVectors(t *testing.T) {
	c := compileFigure1(t)
	for _, cls := range []string{"c1", "c2", "c3"} {
		cc := c.Class(cls)
		for _, a := range cc.Class.MethodList {
			for _, b := range cc.Class.MethodList {
				want := cc.TAV[a].Commutes(cc.TAV[b])
				if got := cc.Table.Commutes(a, b); got != want {
					t.Errorf("%s: table(%s,%s)=%v, vectors say %v", cls, a, b, got, want)
				}
			}
		}
	}
}

func TestTableSymmetric(t *testing.T) {
	c := compileFigure1(t)
	tbl := c.Class("c2").Table
	for _, a := range tbl.Methods {
		for _, b := range tbl.Methods {
			if tbl.Commutes(a, b) != tbl.Commutes(b, a) {
				t.Errorf("asymmetry at (%s,%s)", a, b)
			}
		}
	}
}

func TestTableIndexLookups(t *testing.T) {
	c := compileFigure1(t)
	tbl := c.Class("c2").Table
	i, j := tbl.ModeIndex("m3"), tbl.ModeIndex("m4")
	if i < 0 || j < 0 {
		t.Fatal("mode indices missing")
	}
	if tbl.CommutesIdx(i, j) != tbl.Commutes("m3", "m4") {
		t.Error("CommutesIdx disagrees with Commutes")
	}
	if tbl.ModeIndex("nosuch") != -1 {
		t.Error("unknown method must give -1")
	}
	if tbl.Commutes("nosuch", "m1") {
		t.Error("unknown methods never commute")
	}
	if tbl.NumModes() != 4 {
		t.Errorf("NumModes = %d", tbl.NumModes())
	}
}

func TestTableString(t *testing.T) {
	c := compileFigure1(t)
	out := c.Class("c2").Table.String()
	// Spot-check the Table 2 layout: the m3 row is all "yes".
	var m3row string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "m3") {
			m3row = line
		}
	}
	if m3row == "" {
		t.Fatalf("no m3 row in:\n%s", out)
	}
	if strings.Count(m3row, "yes") != 4 {
		t.Errorf("m3 row = %q, want 4 yes", m3row)
	}
}

// Ad hoc commutativity (section 3): an escrow-style counter whose
// increment and decrement both write the same field — never commuting
// under vectors — can be declared commutative for predefined classes.
func TestOverrides(t *testing.T) {
	const src = `
class counter is
    instance variables are
        value : integer
    method incr(n) is
        value := value + n
    end
    method decr(n) is
        value := value - n
    end
    method read is
        return value
    end
end
class boundedcounter inherits counter is
    instance variables are
        bound : integer
    method incr(n) is redefined as
        if value + n <= bound then
            value := value + n
        end
    end
end`
	ov := NewOverrides()
	ov.Declare("counter", "incr", "incr")
	ov.Declare("counter", "incr", "decr")
	ov.Declare("counter", "decr", "decr")

	c, err := CompileSource(src, WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("counter").Table
	if !tbl.Commutes("incr", "decr") || !tbl.Commutes("incr", "incr") {
		t.Error("escrow override must make incr/decr commute in counter")
	}
	if tbl.Commutes("incr", "read") {
		t.Error("incr must still conflict with read (no override declared)")
	}

	// boundedcounter overrides incr: the ad hoc knowledge about incr no
	// longer applies there, but decr/decr (both still inherited) does.
	btbl := c.Class("boundedcounter").Table
	if btbl.Commutes("incr", "decr") {
		t.Error("override of incr voids the ad hoc declaration in the subclass")
	}
	if !btbl.Commutes("decr", "decr") {
		t.Error("decr/decr stays covered in the subclass")
	}
}

// TestCommutingNonIntegerCoWriteRejected: commuting writers of one field
// run as concurrent uncommitted writers, undone and logged as integer
// deltas. A declaration that makes two writers of a string field commute
// has no such form, so Compile rejects it; one whose commuting writers
// share only an integer field compiles.
func TestCommutingNonIntegerCoWriteRejected(t *testing.T) {
	const src = `
class tally is
    instance variables are
        count : integer
        label : string
    method add(n) is
        count := count + n
    end
    method tag(n, s) is
        count := count + n
        label := s
    end
end`
	for _, tc := range []struct {
		a, b    string
		wantErr bool
	}{
		{"add", "add", false},
		{"add", "tag", false}, // they share count, an integer
		{"tag", "tag", true},  // they share label, a string
	} {
		ov := NewOverrides()
		ov.Declare("tally", tc.a, tc.b)
		_, err := CompileSource(src, WithOverrides(ov))
		if !tc.wantErr {
			if err != nil {
				t.Errorf("%s/%s: %v", tc.a, tc.b, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "label") {
			t.Errorf("%s/%s: err = %v, want a rejection naming label", tc.a, tc.b, err)
		}
	}
}

// Overrides can only add parallelism, never remove it.
func TestOverridesOnlyAdd(t *testing.T) {
	ov := NewOverrides()
	ov.Declare("c2", "m3", "m3") // already commutes
	c, err := CompileSource(paperex.Figure1, WithOverrides(ov))
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	for a, row := range paperex.Table2 {
		for b, want := range row {
			if got := tbl.Commutes(a, b); got != want {
				t.Errorf("override changed (%s,%s): got %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestWriterByTAV(t *testing.T) {
	c := compileFigure1(t)
	c2 := c.Class("c2")
	for method, want := range map[string]bool{
		"m1": true, "m2": true, "m3": false, "m4": true,
	} {
		if got := c2.WriterByTAV(method); got != want {
			t.Errorf("WriterByTAV(%s) = %v, want %v", method, got, want)
		}
	}
}
