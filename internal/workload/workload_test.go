package workload

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func TestGenSchemaCompiles(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		p := DefaultSchemaParams()
		p.Seed = seed
		src := GenSchema(p)
		c, err := core.CompileSource(src)
		if err != nil {
			t.Fatalf("seed %d: generated schema does not compile: %v\n%s", seed, err, src)
		}
		if len(c.Schema.Order) != p.Classes {
			t.Errorf("seed %d: %d classes, want %d", seed, len(c.Schema.Order), p.Classes)
		}
	}
}

func TestGenSchemaMultipleInheritance(t *testing.T) {
	p := DefaultSchemaParams()
	p.MaxParents = 2
	p.Classes = 20
	for seed := int64(1); seed <= 5; seed++ {
		p.Seed = seed
		if _, err := core.CompileSource(GenSchema(p)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestGenSchemaDeterministic(t *testing.T) {
	p := DefaultSchemaParams()
	if GenSchema(p) != GenSchema(p) {
		t.Error("same seed must give identical source")
	}
	p2 := p
	p2.Seed = 99
	if GenSchema(p) == GenSchema(p2) {
		t.Error("different seeds should differ")
	}
}

func TestGenSchemaHasOverridesAndSuperCalls(t *testing.T) {
	p := DefaultSchemaParams()
	p.Classes = 30
	p.OverrideProb = 0.8
	p.PrefixedProb = 1.0
	src := GenSchema(p)
	if !strings.Contains(src, "redefined as") {
		t.Error("expected overrides in generated schema")
	}
	if !strings.Contains(src, ".op") {
		t.Error("expected prefixed super-calls in generated schema")
	}
}

// Generated programs terminate: run every method of every class once.
func TestGeneratedProgramsTerminate(t *testing.T) {
	p := DefaultSchemaParams()
	p.Classes = 8
	src := GenSchema(p)
	c, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(c, engine.FineCC{})
	oids, err := Populate(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Execute every callable method of every instance once, directly.
	for _, oid := range oids {
		in, _ := db.Store.Get(oid)
		for _, name := range callableMethods(in) {
			op := Op{OID: oid, Method: name, Arg: 7}
			if err := RunTxn(db, []Op{op}); err != nil {
				t.Fatalf("%s.%s: %v", in.Class.Name, name, err)
			}
		}
	}
	// And through the mix machinery (covers NextTxn + RunTxn together).
	mix, err := NewMix(db, oids, DefaultMixParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := RunTxn(db, mix.NextTxn()); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if db.Snapshot().TopSends == 0 {
		t.Error("no sends executed")
	}
}

func TestPopulate(t *testing.T) {
	c, err := core.CompileSource(GenSchema(DefaultSchemaParams()))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(c, engine.FineCC{})
	oids, err := Populate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * len(c.Schema.Order)
	if len(oids) != want || db.Store.Count() != want {
		t.Errorf("populated %d, want %d", len(oids), want)
	}
}

func TestMixDeterministicAndHotSpot(t *testing.T) {
	c, err := core.CompileSource(GenSchema(DefaultSchemaParams()))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(c, engine.FineCC{})
	oids, err := Populate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := MixParams{OpsPerTxn: 3, HotSpot: 1.0, HotSet: 1, Seed: 5}
	m1, _ := NewMix(db, oids, p)
	m2, _ := NewMix(db, oids, p)
	for i := 0; i < 10; i++ {
		a, b := m1.NextTxn(), m2.NextTxn()
		if len(a) != len(b) {
			t.Fatal("determinism broken (length)")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("determinism broken at %d/%d", i, j)
			}
			if a[j].OID != oids[0] {
				t.Errorf("HotSpot=1/HotSet=1 must always target the first instance")
			}
		}
	}
}

func TestMixEmptyPopulation(t *testing.T) {
	c, err := core.CompileSource(GenSchema(DefaultSchemaParams()))
	if err != nil {
		t.Fatal(err)
	}
	db := engine.Open(c, engine.FineCC{})
	if _, err := NewMix(db, nil, DefaultMixParams()); err == nil {
		t.Error("empty population must fail")
	}
}

// Concurrent mixed workload runs to completion under every strategy.
func TestMixUnderAllStrategies(t *testing.T) {
	src := GenSchema(DefaultSchemaParams())
	for _, s := range engine.Strategies() {
		t.Run(s.Name(), func(t *testing.T) {
			c, err := core.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			db := engine.Open(c, s)
			oids, err := Populate(db, 3)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					p := DefaultMixParams()
					p.Seed = int64(g + 1)
					mix, err := NewMix(db, oids, p)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 20; i++ {
						if err := RunTxn(db, mix.NextTxn()); err != nil {
							t.Errorf("%s txn: %v", s.Name(), err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
