package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/storage"
	"repro/internal/txn"
)

// The differential semantics suite: every example schema (banking, cad,
// catalog, evolution, quickstart) plus the paper's Figure 1 runs a
// deterministic single-threaded script, and the full transcript — every
// return value, every error, and the final store state — must match the
// golden files under testdata/. The goldens were recorded from the
// tree-walking interpreter immediately before it was replaced by the
// compiled VM, so any behavioural divergence between the two execution
// engines fails here, field by field.
//
// Regenerate (only after deliberately changing execution semantics):
//
//	go test ./internal/engine/ -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden transcripts")

// rec drives one scenario and accumulates its transcript.
type rec struct {
	t    *testing.T
	db   *DB
	buf  strings.Builder
	oids []storage.OID
}

func (r *rec) logf(format string, args ...any) {
	fmt.Fprintf(&r.buf, format+"\n", args...)
}

// outcome renders a value-or-error pair.
func outcome(v Value, err error) string {
	if err != nil {
		return "ERR " + err.Error()
	}
	return v.String()
}

// ref returns a reference to the i-th created object.
func (r *rec) ref(i int) Value { return storage.RefV(r.oids[i]) }

// new creates an instance and registers its OID under the next index.
func (r *rec) new(class string, vals ...Value) {
	r.t.Helper()
	var in *storage.Instance
	err := r.db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		in, err = r.db.NewInstance(tx, class, vals...)
		return err
	})
	if err != nil {
		r.logf("new %s -> ERR %s", class, err)
		return
	}
	r.oids = append(r.oids, in.OID)
	r.logf("new %s -> obj%d", class, len(r.oids)-1)
}

// send delivers one committed message to object i.
func (r *rec) send(i int, method string, args ...Value) {
	r.t.Helper()
	var out Value
	err := r.db.RunWithRetry(func(tx *txn.Txn) error {
		v, err := r.db.Send(tx, r.oids[i], method, args...)
		out = v
		return err
	})
	r.logf("send obj%d %s%s -> %s", i, method, renderArgs(args), outcome(out, err))
}

// sendAbort delivers a message and then aborts, exercising the undo log.
func (r *rec) sendAbort(i int, method string, args ...Value) {
	r.t.Helper()
	tx := r.db.Begin()
	out, err := r.db.Send(tx, r.oids[i], method, args...)
	tx.Abort()
	r.logf("send+abort obj%d %s%s -> %s", i, method, renderArgs(args), outcome(out, err))
}

// scan runs a committed domain scan.
func (r *rec) scan(root, method string, hier bool, args ...Value) {
	r.t.Helper()
	var n int
	err := r.db.RunWithRetry(func(tx *txn.Txn) error {
		var err error
		n, err = r.db.DomainScan(tx, root, method, hier, nil, args...)
		return err
	})
	if err != nil {
		r.logf("scan %s.%s hier=%t -> ERR %s", root, method, hier, err)
		return
	}
	r.logf("scan %s.%s hier=%t -> %d visited", root, method, hier, n)
}

// dump appends the final state of every created object.
func (r *rec) dump() {
	r.logf("final:")
	for i, oid := range r.oids {
		in, ok := r.db.Store.Get(oid)
		if !ok {
			r.logf("obj%d gone", i)
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "obj%d %s {", i, in.Class.Name)
		for s, f := range in.Class.Fields {
			if s > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", f.Name, in.Get(s))
		}
		b.WriteString("}")
		r.logf("%s", b.String())
	}
	st := r.db.Snapshot()
	r.logf("counters: top=%d nested=%d remote=%d reads=%d writes=%d scans=%d visited=%d created=%d",
		st.TopSends, st.NestedSends, st.RemoteSends, st.FieldReads, st.FieldWrites,
		st.Scans, st.InstancesVisited, st.InstancesCreated)
}

func renderArgs(args []Value) string {
	if len(args) == 0 {
		return ""
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func loadSchema(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name+".mdl"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

type goldenScenario struct {
	name   string
	source func(t *testing.T) string
	script func(r *rec)
}

func goldenScenarios() []goldenScenario {
	fromFile := func(name string) func(*testing.T) string {
		return func(t *testing.T) string { return loadSchema(t, name) }
	}
	return []goldenScenario{
		{
			name:   "figure1",
			source: func(*testing.T) string { return paperex.Figure1 },
			script: func(r *rec) {
				r.new("c3")                                                   // obj0
				r.new("c2", storage.IntV(10), storage.BoolV(false), r.ref(0)) // obj1
				r.new("c2", storage.IntV(-3), storage.BoolV(true), r.ref(0))  // obj2
				r.new("c1", storage.IntV(7), storage.BoolV(true), r.ref(0))   // obj3
				r.send(1, "m2", storage.IntV(5))                              // prefixed c1.m2 + f4
				r.send(1, "m4", storage.IntV(1), storage.IntV(2))             // cond branch
				r.send(2, "m3")                                               // remote send to c3 (f2 true)
				r.send(1, "m3")                                               // f2 false: no remote send
				r.send(3, "m1", storage.IntV(9))                              // inherited chain on c1
				r.send(2, "m1", storage.IntV(4))                              // late-bound chain on c2
				r.sendAbort(1, "m2", storage.IntV(11))                        // undo f1/f4
				r.send(1, "m4", storage.IntV(3), storage.IntV(8))             //
				r.scan("c1", "m2", true, storage.IntV(2))                     // hier domain scan
				r.scan("c2", "m4", false, storage.IntV(1), storage.IntV(1))   // intentional scan
				r.send(0, "m")                                                // direct bump of g1
				r.dump()
			},
		},
		{
			name:   "quickstart",
			source: func(*testing.T) string { return paperex.Figure1 },
			script: func(r *rec) {
				r.new("c2", storage.IntV(10), storage.BoolV(false)) // obj0, f3 nil
				for i := 0; i < 8; i++ {
					r.send(0, "m2", storage.IntV(int64(i)))
					r.send(0, "m4", storage.IntV(int64(i)), storage.IntV(int64(i+1)))
				}
				r.send(0, "m3") // f2 false: stops before the nil reference
				r.dump()
			},
		},
		{
			name:   "banking",
			source: fromFile("banking"),
			script: func(r *rec) {
				r.new("account", storage.IntV(1001), storage.StrV("ada"), storage.IntV(100), storage.BoolV(false))
				r.new("savings", storage.IntV(1002), storage.StrV("grace"), storage.IntV(1000), storage.BoolV(false), storage.IntV(5))
				r.new("checking", storage.IntV(1003), storage.StrV("edsger"), storage.IntV(10), storage.BoolV(false), storage.IntV(50))
				r.send(0, "deposit", storage.IntV(10))
				r.send(0, "withdraw", storage.IntV(30))
				r.send(0, "withdraw", storage.IntV(1000)) // insufficient: no-op branch
				r.send(0, "getbalance")
				r.send(0, "rename", storage.StrV("lovelace"))
				r.send(0, "flag")
				r.send(0, "isflagged")
				r.send(1, "accrue") // nested self-send deposit
				r.send(1, "getbalance")
				r.send(2, "withdraw", storage.IntV(40)) // overriding withdraw uses overdraft
				r.send(2, "getbalance")
				r.sendAbort(1, "deposit", storage.IntV(77))
				r.send(1, "getbalance")
				r.scan("account", "getbalance", true)
				r.scan("account", "deposit", false, storage.IntV(1))
				r.scan("savings", "accrue", false)
				r.dump()
			},
		},
		{
			name:   "cad",
			source: fromFile("cad"),
			script: func(r *rec) {
				r.new("part", storage.IntV(1), storage.IntV(7))
				r.new("assembly", storage.IntV(2), storage.IntV(3))
				r.send(0, "inspect", storage.IntV(6))
				r.send(0, "revise", storage.IntV(2))
				r.send(0, "inspect", storage.IntV(6))
				r.send(0, "session", storage.IntV(4)) // nested inspect+revise
				r.send(0, "approve")
				r.send(1, "session", storage.IntV(5)) // prefixed part.session + children
				r.send(1, "inspect", storage.IntV(3))
				r.sendAbort(0, "revise", storage.IntV(100))
				r.scan("part", "revise", false, storage.IntV(1))
				r.scan("part", "inspect", true, storage.IntV(2))
				r.dump()
			},
		},
		{
			name:   "catalog",
			source: fromFile("catalog"),
			script: func(r *rec) {
				r.new("item", storage.IntV(1), storage.IntV(500), storage.IntV(3))
				r.new("book", storage.IntV(2), storage.IntV(1500), storage.IntV(1), storage.StrV(""))
				r.new("disc", storage.IntV(3), storage.IntV(900), storage.IntV(2), storage.IntV(0))
				r.send(0, "setprice", storage.IntV(450))
				r.send(0, "discount", storage.IntV(10))
				r.send(0, "receive", storage.IntV(5))
				r.send(0, "sell", storage.IntV(2))
				r.send(0, "sell", storage.IntV(100)) // insufficient stock branch
				r.send(0, "onhand")
				r.send(1, "setauthor", storage.StrV("hofstadter"))
				r.send(1, "sell", storage.IntV(1))
				r.send(2, "remaster", storage.IntV(74)) // nested self-send discount
				r.sendAbort(2, "setprice", storage.IntV(1))
				r.scan("item", "receive", false, storage.IntV(2))
				r.scan("item", "onhand", true)
				r.dump()
			},
		},
		{
			name:   "evolution",
			source: fromFile("evolution"),
			script: func(r *rec) {
				r.new("article", storage.StrV("v0"), storage.StrV("lorem"), storage.IntV(0))
				r.send(0, "read")
				r.send(0, "read")
				r.send(0, "retitle", storage.StrV("v1"))
				r.send(0, "edit", storage.StrV("fresh body"))
				r.send(0, "read")
				r.sendAbort(0, "edit", storage.StrV("doomed"))
				r.dump()
			},
		},
		{
			name:   "errors",
			source: func(*testing.T) string { return calcSchema },
			script: func(r *rec) {
				r.new("calc")
				r.send(0, "add", storage.IntV(7))
				r.send(0, "fact", storage.IntV(10))
				r.send(0, "busy", storage.IntV(6))
				r.send(0, "note", storage.StrV("ab"))
				r.send(0, "meta", storage.IntV(3), storage.IntV(1))
				r.send(0, "boom")                    // division by zero
				r.send(0, "add", storage.StrV("x"))  // type error
				r.send(0, "setlog", storage.IntV(3)) // assignment type error
				r.send(0, "add")                     // arity error
				r.dump()
			},
		},
	}
}

func TestGoldenDifferential(t *testing.T) {
	for _, sc := range goldenScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			compiled, err := core.CompileSource(sc.source(t))
			if err != nil {
				t.Fatal(err)
			}
			r := &rec{t: t, db: Open(compiled, FineCC{})}
			sc.script(r)
			got := r.buf.String()

			path := filepath.Join("testdata", sc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("transcript diverges from the tree-walker golden.\n--- got ---\n%s\n--- want ---\n%s",
					got, string(want))
			}
		})
	}
}
