package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/paperex"
	"repro/internal/schema"
)

// The slab-store storm: concurrent creators, deleters, readers and scanners across every class of the Figure 1 schema.
// Run with -race in CI; the assertions afterwards check the structural
// invariants (unique OIDs per extent, extents matching the live set,
// count matching both).
func TestStoreStorm(t *testing.T) {
	s, err := schema.FromSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(s)
	classes := []*schema.Class{s.Class("c1"), s.Class("c2"), s.Class("c3")}

	const (
		creators = 4
		churners = 4
		readers  = 4
		ops      = 400
	)
	var (
		wg      sync.WaitGroup
		created atomic.Int64
		deleted atomic.Int64
	)

	// Creators: grow extents and the page directory concurrently.
	for g := 0; g < creators; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				cls := classes[rng.Intn(len(classes))]
				if _, err := st.NewInstance(cls); err != nil {
					t.Error(err)
					return
				}
				created.Add(1)
			}
		}(int64(g))
	}

	// Churners: create a private instance, sometimes delete it.
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + seed))
			for i := 0; i < ops; i++ {
				cls := classes[rng.Intn(len(classes))]
				in, err := st.NewInstance(cls)
				if err != nil {
					t.Error(err)
					return
				}
				created.Add(1)
				if rng.Intn(2) == 0 {
					continue
				}
				if err := st.Delete(in.OID); err != nil {
					t.Error(err)
					return
				}
				deleted.Add(1)
			}
		}(int64(g))
	}

	// Readers: random Gets and copy-free snapshot scans while the
	// directory grows and extents churn under them.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(2000 + seed))
			for i := 0; i < ops; i++ {
				if in, ok := st.Get(OID(rng.Intn(2000) + 1)); ok && in.OID == 0 {
					t.Error("live instance with zero OID")
					return
				}
				root := classes[rng.Intn(len(classes))]
				for _, part := range st.DomainSnapshot(root.Domain()) {
					for _, oid := range part {
						if oid == 0 {
							t.Error("zero OID in extent snapshot")
							return
						}
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Invariants: every extent holds unique, live, properly-classed
	// OIDs; the live set equals created - deleted; Count agrees.
	wantLive := int(created.Load() - deleted.Load())
	if got := st.Count(); got != wantLive {
		t.Errorf("Count = %d, want %d", got, wantLive)
	}
	total := 0
	seen := make(map[OID]bool)
	for _, cls := range classes {
		ext := st.ExtentOf(cls)
		total += len(ext)
		for _, oid := range ext {
			if seen[oid] {
				t.Fatalf("OID %d appears in two extents", oid)
			}
			seen[oid] = true
			in, ok := st.Get(oid)
			if !ok {
				t.Fatalf("extent of %s lists dead OID %d", cls.Name, oid)
			}
			if in.Class != cls {
				t.Fatalf("OID %d filed under %s but is a %s", oid, cls.Name, in.Class.Name)
			}
		}
	}
	if total != wantLive {
		t.Errorf("extents hold %d OIDs, want %d", total, wantLive)
	}
}

// Snapshots are versions: a snapshot taken before a mutation keeps its
// contents, and a snapshot taken after reflects the mutation without
// copying when the extent is quiescent.
func TestExtentSnapshotVersioning(t *testing.T) {
	s, err := schema.FromSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(s)
	c1 := s.Class("c1")
	var oids []OID
	for i := 0; i < 10; i++ {
		in, err := st.NewInstance(c1)
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, in.OID)
	}

	before := st.ExtentOf(c1)
	if len(before) != 10 {
		t.Fatalf("snapshot = %d OIDs", len(before))
	}
	// Warm snapshots are shared, not copied.
	again := st.ExtentOf(c1)
	if &before[0] != &again[0] {
		t.Error("quiescent snapshots must share storage (copy-free)")
	}

	if err := st.Delete(oids[3]); err != nil {
		t.Fatal(err)
	}
	// The old version is untouched by the mutation.
	if len(before) != 10 || before[3] != oids[3] {
		t.Error("published snapshot mutated by Delete")
	}
	after := st.ExtentOf(c1)
	if len(after) != 9 {
		t.Errorf("post-delete snapshot = %d OIDs, want 9", len(after))
	}
	for _, oid := range after {
		if oid == oids[3] {
			t.Error("deleted OID still in fresh snapshot")
		}
	}
}

// The page directory grows past multiple page boundaries while Gets
// proceed: OIDs stay dense and every allocated instance is reachable.
func TestPageDirectoryGrowth(t *testing.T) {
	s, err := schema.FromSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(s)
	c3 := s.Class("c3")
	const n = 3*pageSize + 17
	for i := 0; i < n; i++ {
		if _, err := st.NewInstance(c3); err != nil {
			t.Fatal(err)
		}
	}
	if st.Count() != n {
		t.Fatalf("count = %d, want %d", st.Count(), n)
	}
	for oid := OID(1); oid <= n; oid++ {
		if _, ok := st.Get(oid); !ok {
			t.Fatalf("OID %d unreachable after growth", oid)
		}
	}
	if _, ok := st.Get(n + 1); ok {
		t.Error("unallocated OID must not resolve")
	}
}
