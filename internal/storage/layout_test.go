package storage

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/schema"
)

// savingsSrc declares a five-slot account, the shape the benchmark
// preloads by the hundred thousand.
const savingsSrc = `
class savings is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
        flagged : boolean
        ratepct : integer
    method getbalance is
        return balance
    end
end
`

// TestStoreLayout pins the per-object memory of the store: the record
// sizes, and what one stored instance costs on the heap. A field added
// to Instance, aslot or Version fails here instead of showing up later
// as a drifting peak RSS.
func TestStoreLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Instance", unsafe.Sizeof(Instance{}), 80},
		{"aslot", unsafe.Sizeof(aslot{}), 16},
		{"Version", unsafe.Sizeof(Version{}), 40},
	} {
		if c.got != c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}

	s, err := schema.FromSource(savingsSrc)
	if err != nil {
		t.Fatal(err)
	}
	cls := s.Class("savings")
	if cls.NumSlots() != 5 {
		t.Fatalf("savings has %d slots, want 5", cls.NumSlots())
	}
	const n = 10000
	st := NewStore(s)
	// The OID directory and the extent cost 8 B an instance each, plus
	// growth slack; size them up front so the figure is the instance's own.
	st.grow(n)
	st.extents[cls.ID].oids = make([]OID, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := st.NewInstance(cls, IntV(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	// Header (80) + five 16-byte cells (80), and one word of slack: one
	// more word in the header moves it to the 96 B size class.
	const maxPerInstance = 168
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n; per > maxPerInstance {
		t.Errorf("a stored 5-slot instance costs %.1f B of heap, want ≤ %d", per, maxPerInstance)
	} else {
		t.Logf("a stored 5-slot instance costs %.1f B of heap", per)
	}
}
