package lock

import (
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
)

// Warm-path allocation budgets for the lock table itself. The modes are
// pre-boxed (as the engine Runtime does), the resources are fixed-width
// values, entries and txn states are pooled — so neither a reentrant
// re-acquire nor a full acquire/release cycle may allocate.

func warmMethodMode(t *testing.T) Mode {
	t.Helper()
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	return MethodMode{Table: tbl, Idx: tbl.ModeIndex("m3")}
}

func TestAcquireReentrantZeroAllocs(t *testing.T) {
	m := NewManager()
	res := InstanceRes(7)
	mode := warmMethodMode(t)
	if err := m.Acquire(1, res, mode); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Acquire(1, res, mode); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reentrant instance-granule Acquire allocates %.1f objects/op, want 0", allocs)
	}
}

// A warm acquire/release cycle allocates nothing, whatever rows the
// request covers: one instance row, the requester's own class partition
// (an intentional ClassMode), or every partition (a hierarchical one).
func TestAcquireReleaseCycleZeroAllocs(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	m3 := tbl.ModeIndex("m3")
	for _, tc := range []struct {
		name string
		res  ResourceID
		mode Mode
		// exactOnly skips the row under -race. There sync.Pool drops a
		// quarter of its Puts, and a fresh txn state regrows its held
		// slices: one per shard the rows fall on, eight rows here, which
		// AllocsPerRun's integer average no longer rounds down to 0.
		exactOnly bool
	}{
		{"instance method mode", InstanceRes(7), MethodMode{Table: tbl, Idx: m3}, false},
		{"intentional class mode", ClassRes(1), ClassMode{Table: tbl, Idx: m3}, false},
		{"hierarchical class mode", ClassRes(1), ClassMode{Table: tbl, Idx: m3, Hier: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.exactOnly && raceEnabled {
				t.Skip("sync.Pool drops Puts at random under -race")
			}
			m := NewManager()
			// Warm the entry free lists, the txn state pool and the held slices.
			for i := 0; i < 4; i++ {
				if err := m.Acquire(1, tc.res, tc.mode); err != nil {
					t.Fatal(err)
				}
				m.ReleaseAll(1)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := m.Acquire(1, tc.res, tc.mode); err != nil {
					t.Fatal(err)
				}
				m.ReleaseAll(1)
			})
			if allocs != 0 {
				t.Errorf("warm acquire/release cycle allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// Class-granule acquires take the same integer-only hash path: no name
// bytes exist on a ResourceID, so there is nothing to loop over.
func TestClassAcquireZeroAllocs(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	mode := Mode(ClassMode{Table: tbl, Idx: tbl.ModeIndex("m3"), Hier: false})
	m := NewManager()
	res := ClassRes(1)
	if err := m.Acquire(1, res, mode); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Acquire(1, res, mode); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reentrant class-granule Acquire allocates %.1f objects/op, want 0", allocs)
	}
}
