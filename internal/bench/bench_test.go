package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

// TestScenario52 asserts the paper's headline result: the maximal
// concurrent transaction sets of section 5.2, per strategy.
func TestScenario52(t *testing.T) {
	want := map[string][]string{
		// "either T1∥T3∥T4, or T2∥T3∥T4 are allowed"
		"fine": {"T1,T3,T4", "T2,T3,T4"},
		// "either T1∥T3 would have been allowed …, or T1∥T4"
		"rw":          {"T1,T3", "T1,T4", "T2"},
		"rw-implicit": {"T1,T3", "T1,T4", "T2"},
		"rw-announce": {"T1,T3", "T1,T4", "T2"},
		// field locking at run time still scans at class granularity
		"field": {"T1,T3", "T1,T4", "T2"},
		// "Consequently, either T1∥T3, or T3∥T4 are allowed."
		"relational": {"T1,T3", "T2", "T3,T4"},
	}
	for _, s := range engine.Strategies() {
		res, err := RunScenario(s, false)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !reflect.DeepEqual(res.MaximalSets, want[s.Name()]) {
			t.Errorf("%s: maximal sets = %v, want %v", s.Name(), res.MaximalSets, want[s.Name()])
		}
	}
}

// The closing remark of section 5.2: relationally, T1∥T3∥T4 would have
// been allowed if m2 did not modify the key field — but not T2∥T3∥T4.
func TestScenario52NoKeyVariant(t *testing.T) {
	res, err := RunScenario(engine.RelCC{}, true)
	if err != nil {
		t.Fatal(err)
	}
	found134, found234 := false, false
	for _, set := range res.MaximalSets {
		if set == "T1,T3,T4" {
			found134 = true
		}
		if set == "T2,T3,T4" {
			found234 = true
		}
	}
	if !found134 {
		t.Errorf("relational no-key variant: T1,T3,T4 missing from %v", res.MaximalSets)
	}
	if found234 {
		t.Errorf("relational no-key variant must NOT allow T2,T3,T4: %v", res.MaximalSets)
	}

	// Fine CC is key-agnostic: same sets as the base scenario.
	fres, err := RunScenario(engine.FineCC{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fres.MaximalSets, []string{"T1,T3,T4", "T2,T3,T4"}) {
		t.Errorf("fine variant sets = %v", fres.MaximalSets)
	}
}

// The paper's prose about the fine-CC lock sets of section 5.2.
func TestScenario52FineLockSets(t *testing.T) {
	res, err := RunScenario(engine.FineCC{}, false)
	if err != nil {
		t.Fatal(err)
	}
	has := func(i int, s string) bool {
		for _, l := range res.LockSets[i] {
			if l == s {
				return true
			}
		}
		return false
	}
	// T1: "the lock m1 is acquired on i, and the lock (m1,false) on c1"
	if !has(0, "class:c1:(m1,int)") || len(res.LockSets[0]) != 2 {
		t.Errorf("T1 locks = %v", res.LockSets[0])
	}
	// T2: "the lock (m1,true) is requested on c1 and c2"
	if !has(1, "class:c1:(m1,hier)") || !has(1, "class:c2:(m1,hier)") {
		t.Errorf("T2 locks = %v", res.LockSets[1])
	}
	for _, l := range res.LockSets[1] {
		if strings.HasPrefix(l, "inst:") {
			t.Errorf("T2 must lock no instances: %v", res.LockSets[1])
		}
	}
	// T3: "classes c1, c2 … locked with (m3,false); each actually used
	// instance will be locked with m3"
	if !has(2, "class:c1:(m3,int)") || !has(2, "class:c2:(m3,int)") {
		t.Errorf("T3 locks = %v", res.LockSets[2])
	}
	instLocks := 0
	for _, l := range res.LockSets[2] {
		if strings.HasPrefix(l, "inst:") {
			instLocks++
			if !strings.HasSuffix(l, ":m3") {
				t.Errorf("T3 instance lock %s not in mode m3", l)
			}
		}
	}
	if instLocks == 0 {
		t.Error("T3 must lock the instances it actually uses")
	}
	// T4: "(m4,true) on every classes of domain c2"
	if !has(3, "class:c2:(m4,hier)") || len(res.LockSets[3]) != 1 {
		t.Errorf("T4 locks = %v", res.LockSets[3])
	}
}

// Pairwise conclusions from the prose: T1∦T2, T2∥T3, T2∥T4, T3∥T4.
func TestScenario52FineConflictMatrix(t *testing.T) {
	res, err := RunScenario(engine.FineCC{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Conflict[0][1] {
		t.Error("T1 and T2 must conflict (intentional vs hierarchical m1)")
	}
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		if res.Conflict[pair[0]][pair[1]] {
			t.Errorf("%s and %s must be compatible under fine CC",
				TxnNames[pair[0]], TxnNames[pair[1]])
		}
	}
}

func TestEscalationShape(t *testing.T) {
	rw, err := RunEscalationWorkload(engine.RWCC{}, 8, 30, 400)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunEscalationWorkload(engine.FineCC{}, 8, 30, 400)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := RunEscalationWorkload(engine.RWAnnounceCC{}, 8, 30, 400)
	if err != nil {
		t.Fatal(err)
	}

	if rw.Committed != 240 || fine.Committed != 240 || ann.Committed != 240 {
		t.Fatalf("all workloads must commit 240 txns: rw=%d fine=%d ann=%d",
			rw.Committed, fine.Committed, ann.Committed)
	}
	if rw.Deadlocks == 0 {
		t.Error("rw must deadlock on the update hot spot")
	}
	if rw.EscalationDeadlocks != rw.Deadlocks {
		t.Errorf("every rw deadlock here is an escalation: %d of %d",
			rw.EscalationDeadlocks, rw.Deadlocks)
	}
	if fine.Deadlocks != 0 {
		t.Errorf("fine CC deadlocked %d times", fine.Deadlocks)
	}
	if ann.Deadlocks != 0 {
		t.Errorf("announce deadlocked %d times", ann.Deadlocks)
	}
	if rw.Upgrades == 0 || fine.Upgrades != 0 {
		t.Errorf("upgrades: rw=%d fine=%d", rw.Upgrades, fine.Upgrades)
	}
}

func TestPseudoShape(t *testing.T) {
	fine, err := RunPseudoWorkload(engine.FineCC{}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := RunPseudoWorkload(engine.RWCC{}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Blocks != 0 {
		t.Errorf("fine CC blocked %d times on disjoint methods", fine.Blocks)
	}
	if rw.Blocks == 0 {
		t.Error("rw must block m2 against m4")
	}
	if fine.Committed != 200 || rw.Committed != 200 {
		t.Errorf("commits: fine=%d rw=%d", fine.Committed, rw.Committed)
	}
}

func TestThroughputRuns(t *testing.T) {
	for _, s := range engine.Strategies() {
		for _, profile := range []ThroughputProfile{ProfileRandom, ProfileHotDisjoint} {
			row, err := RunThroughputWorkload(s, profile, 4, 25)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name(), profile, err)
			}
			if row.Committed != 100 {
				t.Errorf("%s/%s: committed %d, want 100", s.Name(), profile, row.Committed)
			}
		}
	}
	if _, err := RunThroughputWorkload(engine.FineCC{}, ThroughputProfile("zz"), 1, 1); err == nil {
		t.Error("unknown profile must fail")
	}
}

// TestThroughputHotShape: on the hot-disjoint mix, fine-grained locking
// blocks less than read/write locking — about half as often, the
// paper's parallelism claim. One pair of runs is a schedule, and about
// one pair in a hundred inverts, so the test sums blocks over
// hotShapePairs pairs and asks for fine below three quarters of rw: a
// margin two runs of one strategy do not clear.
func TestThroughputHotShape(t *testing.T) {
	const hotShapePairs = 5
	var fine, rw int64
	for i := 0; i < hotShapePairs; i++ {
		f, err := RunThroughputWorkload(engine.FineCC{}, ProfileHotDisjoint, 6, 30)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunThroughputWorkload(engine.RWCC{}, ProfileHotDisjoint, 6, 30)
		if err != nil {
			t.Fatal(err)
		}
		fine += f.Blocks
		rw += r.Blocks
	}
	if 4*fine >= 3*rw {
		t.Errorf("fine blocks (%d) must stay below three quarters of rw blocks (%d) over %d pairs", fine, rw, hotShapePairs)
	}
	if rw == 0 {
		t.Error("rw must block on the hot mix")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{
		"table1": true, "figure1": true, "figure2": true, "tav43": true,
		"table2": true, "scenario52": true, "overhead": true,
		"escalation": true, "pseudo": true, "compile": true,
		"runtime": true, "throughput": true, "conservative": true,
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(got), len(want))
	}
	for _, e := range got {
		if !want[e.ID] {
			t.Errorf("unexpected experiment %s", e.ID)
		}
		if e.Paper == "" || e.Title == "" {
			t.Errorf("experiment %s lacks metadata", e.ID)
		}
	}
	if Lookup("nosuch") != nil {
		t.Error("Lookup of unknown ID must be nil")
	}
}

// Every static experiment runs cleanly and produces output; the heavy
// dynamic ones are covered by their dedicated shape tests above.
func TestStaticExperimentsRun(t *testing.T) {
	for _, id := range []string{"table1", "figure1", "figure2", "tav43", "table2", "scenario52", "overhead"} {
		var buf bytes.Buffer
		if err := RunByID(&buf, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
	var buf bytes.Buffer
	if err := RunByID(&buf, "nosuch"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTable("a", "bb")
	tbl.Add("x")
	tbl.AddF(12, "yy")
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "a   bb") || !strings.Contains(out, "12  yy") {
		t.Errorf("table output:\n%s", out)
	}
}

// --- Benchmarks -------------------------------------------------------
//
// These map one-to-one onto the paper's tables, figures and claims (see
// EXPERIMENTS.md):
//
//	BenchmarkTable1Compat        — Table 1 (classical compatibility check)
//	BenchmarkModeCheck*          — §5.1 claim: method-mode check ≈ R/W check
//	BenchmarkVector*             — definitions 4–5 primitives
//	BenchmarkCompileFigure1      — Figures 1–2, Table 2, §4.3 pipeline
//	BenchmarkCompileTAV/*        — §4.3 linearity sweep
//	BenchmarkSend/*              — §3 locking overhead per top message
//	BenchmarkScenario52          — §5.2 scenario analysis
//	BenchmarkEscalation/*        — §3 System R escalation shape
//	BenchmarkPseudo/*            — §3 pseudo-conflict shape
//	BenchmarkThroughput/*        — §§1/7 parallelism claim
//	BenchmarkLockAcquireRelease  — lock-manager single-threaded latency

func compileFig1(b *testing.B) *core.Compiled {
	b.Helper()
	c, err := compiledFigure1()
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// Table 1: the classical compatibility relation.
func BenchmarkTable1Compat(b *testing.B) {
	acc := false
	for i := 0; i < b.N; i++ {
		acc = acc != core.Read.Compatible(core.Write)
	}
	_ = acc
}

// §5.1: a method-mode commutativity check is one table lookup…
func BenchmarkModeCheckMethodTable(b *testing.B) {
	c := compileFig1(b)
	tbl := c.Class("c2").Table
	i, j := tbl.ModeIndex("m2"), tbl.ModeIndex("m4")
	b.ResetTimer()
	acc := false
	for k := 0; k < b.N; k++ {
		acc = acc != tbl.CommutesIdx(i, j)
	}
	_ = acc
}

// …as cheap as a classical read/write compatibility check…
func BenchmarkModeCheckRW(b *testing.B) {
	acc := false
	for k := 0; k < b.N; k++ {
		acc = acc != lock.S.Compatible(lock.X)
	}
	_ = acc
}

// …while checking raw access vectors would cost a merge scan.
func BenchmarkVectorCommute(b *testing.B) {
	c := compileFig1(b)
	v1 := c.Class("c2").TAV["m1"]
	v2 := c.Class("c2").TAV["m2"]
	b.ResetTimer()
	acc := false
	for k := 0; k < b.N; k++ {
		acc = acc != v1.Commutes(v2)
	}
	_ = acc
}

// Definition 4: the join operator.
func BenchmarkVectorJoin(b *testing.B) {
	c := compileFig1(b)
	v1 := c.Class("c2").TAV["m1"]
	v2 := c.Class("c2").TAV["m4"]
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		_ = v1.Join(v2)
	}
}

// Figures 1–2, Table 2, §4.3: the whole pipeline on the paper's example.
func BenchmarkCompileFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.CompileSource(paperex.Figure1); err != nil {
			b.Fatal(err)
		}
	}
}

// §4.3 linearity: compile time per schema size (analysis only; the
// parse/build front end is excluded so the Tarjan pass dominates).
func BenchmarkCompileTAV(b *testing.B) {
	for _, classes := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("classes-%d", classes), func(b *testing.B) {
			p := workload.SchemaParams{
				Classes: classes, MaxParents: 2, FieldsPerClass: 4,
				MethodsPerClass: 6, SelfCallsPerM: 3,
				OverrideProb: 0.3, PrefixedProb: 0.5, AllowCycles: true, Seed: 42,
			}
			s, err := core.CompileSource(workload.GenSchema(p))
			if err != nil {
				b.Fatal(err)
			}
			methods := 0
			for _, cls := range s.Schema.Order {
				methods += len(cls.MethodList)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(s.Schema); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*methods), "ns/method")
		})
	}
}

// §3 locking overhead: one top-level m1 send (which self-sends m2 and
// m3) per strategy — the fine protocol pays two lock requests, the
// baselines one control per message plus escalations.
func BenchmarkSend(b *testing.B) {
	for _, s := range engine.Strategies() {
		b.Run(s.Name(), func(b *testing.B) {
			db := engine.Open(compileFig1(b), s)
			var oid storage.OID
			err := db.RunWithRetry(func(tx *txn.Txn) error {
				in, err := db.NewInstance(tx, "c2", storage.IntV(1), storage.BoolV(false))
				oid = in.OID
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.Send(tx, oid, "m1", storage.IntV(int64(i)))
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			st := db.Locks().Snapshot()
			b.ReportMetric(float64(st.Requests)/float64(st.Releases), "locks/txn")
		})
	}
}

// §5.2: the full scenario analysis (record four transactions under one
// strategy and compute the maximal concurrent sets).
func BenchmarkScenario52(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(engine.FineCC{}, false); err != nil {
			b.Fatal(err)
		}
	}
}

// §3 System R shape: contended check-then-revise sessions.
func BenchmarkEscalation(b *testing.B) {
	for _, s := range []engine.Strategy{engine.RWCC{}, engine.RWAnnounceCC{}, engine.FineCC{}} {
		b.Run(s.Name(), func(b *testing.B) {
			deadlocks := int64(0)
			for i := 0; i < b.N; i++ {
				row, err := RunEscalationWorkload(s, 4, 5, 200)
				if err != nil {
					b.Fatal(err)
				}
				deadlocks += row.Deadlocks
			}
			b.ReportMetric(float64(deadlocks)/float64(b.N), "deadlocks/run")
		})
	}
}

// §3 pseudo-conflicts: the m2/m4 mix on one instance.
func BenchmarkPseudo(b *testing.B) {
	for _, s := range []engine.Strategy{engine.FineCC{}, engine.RWCC{}} {
		b.Run(s.Name(), func(b *testing.B) {
			blocks := int64(0)
			for i := 0; i < b.N; i++ {
				row, err := RunPseudoWorkload(s, 2, 20)
				if err != nil {
					b.Fatal(err)
				}
				blocks += row.Blocks
			}
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks/run")
		})
	}
}

// §§1/7: committed-transaction throughput of the full stack, on the
// profile where the fine modes pay off and on a random mix.
func BenchmarkThroughput(b *testing.B) {
	for _, profile := range []ThroughputProfile{ProfileHotDisjoint, ProfileRandom} {
		for _, s := range engine.Strategies() {
			for _, nworkers := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%s/w%d", profile, s.Name(), nworkers), func(b *testing.B) {
					blocks := int64(0)
					for i := 0; i < b.N; i++ {
						row, err := RunThroughputWorkload(s, profile, nworkers, 25)
						if err != nil {
							b.Fatal(err)
						}
						blocks += row.Blocks
					}
					b.ReportMetric(float64(blocks)/float64(b.N), "blocks/run")
				})
			}
		}
	}
}

// Lock-manager hot path: uncontended acquire + release, single thread —
// the latency floor sharding must not regress.
func BenchmarkLockAcquireRelease(b *testing.B) {
	m := lock.NewManager()
	res := lock.InstanceRes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := lock.TxnID(i + 1)
		if err := m.Acquire(txn, res, lock.X); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

// Lock-manager hot path under parallel load, in the shape of every top
// send of the paper's protocol on one hot class: an intentional class
// lock shared by all workers plus X on the worker's own instance, then
// ReleaseAll. The class lock is what the workers have in common; its
// partitions (lock.classPartitions) keep it from serializing them on
// one shard mutex. Must report 0 allocs/op.
func BenchmarkHotClassLockParallel(b *testing.B) {
	c := compileFig1(b)
	tbl := c.Class("c2").Table
	intent := lock.Mode(lock.ClassMode{Table: tbl, Idx: tbl.ModeIndex("m4")})
	class := lock.ClassRes(c.Schema.Class("c2").ID)
	m := lock.NewManager()
	var nextTxn, nextWorker atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		own := lock.InstanceRes(nextWorker.Add(1))
		for pb.Next() {
			txn := lock.TxnID(nextTxn.Add(1))
			if err := m.Acquire(txn, class, intent); err != nil {
				b.Error(err)
				return
			}
			if err := m.Acquire(txn, own, lock.X); err != nil {
				b.Error(err)
				return
			}
			m.ReleaseAll(txn)
		}
	})
}

// Interpreter hot path: arithmetic-heavy method execution.
func BenchmarkInterpreter(b *testing.B) {
	const src = `
class k is
    instance variables are
        n : integer
    method busy(p) is
        var i := 0
        while i < p do
            i := i + 1
            n := n + i
        end
        return n
    end
end`
	c, err := core.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	db := engine.Open(c, engine.FineCC{})
	var oid storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "k")
		oid = in.OID
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := db.RunWithRetry(func(tx *txn.Txn) error {
			_, err := db.Send(tx, oid, "busy", storage.IntV(100))
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
