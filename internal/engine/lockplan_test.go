package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/paperex"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/txn"
)

// traceAcquirer renders every lock request, in order and undeduplicated
// (unlike Recorder): re-entrant duplicates are part of what a protocol
// costs, so the golden pins them too.
type traceAcquirer struct {
	rt  *Runtime
	buf *strings.Builder
}

func (a *traceAcquirer) Acquire(res lock.ResourceID, mode lock.Mode) error {
	fmt.Fprintf(a.buf, " [%s %s]", a.rt.ResourceLabel(res), mode)
	return nil
}

// lockPlanTranscript drives every locking event of one strategy over one
// schema and renders the requests each one issues.
func lockPlanTranscript(t *testing.T, src string, s Strategy) string {
	t.Helper()
	var b strings.Builder
	driveLockEvents(t, src, s, &b, func(rt *Runtime) Acquirer { return &traceAcquirer{rt: rt, buf: &b} })
	return b.String()
}

// driveLockEvents runs every locking event of one strategy over one
// schema through the acquirer acq builds: a top send of every method on
// every class (nested sends, field accesses and remote sends ride
// along), intentional and hierarchical scans of every method from every
// class, and one create and one delete per class. Each event is labelled
// on its own line of b.
func driveLockEvents(t *testing.T, src string, s Strategy, b *strings.Builder, acq func(*Runtime) Acquirer) {
	t.Helper()
	c, err := core.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	db := Open(c, s)
	sch := c.Schema

	// One committed instance per class: integers 1, booleans true (so
	// guarded branches run), strings "s", references to the seeded
	// instance of their domain class.
	seeded := make([]*storage.Instance, len(sch.Order))
	if err := db.RunWithRetry(func(tx *txn.Txn) error {
		for i, cls := range sch.Order {
			vals := make([]Value, len(cls.Fields))
			for j, f := range cls.Fields {
				switch f.Type {
				case schema.TInt:
					vals[j] = storage.IntV(1)
				case schema.TBool:
					vals[j] = storage.BoolV(true)
				case schema.TString:
					vals[j] = storage.StrV("s")
				default:
					vals[j] = storage.Zero(f.Type)
				}
			}
			in, err := db.NewInstance(tx, cls.Name, vals...)
			if err != nil {
				return err
			}
			seeded[i] = in
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, cls := range sch.Order {
		for slot, f := range cls.Fields {
			if f.Type != schema.TRef {
				continue
			}
			for j, target := range sch.Order {
				if target.Name == f.Domain {
					seeded[i].Set(slot, storage.RefV(seeded[j].OID))
				}
			}
		}
	}

	a := acq(db.Runtime())
	tx := db.Begin()
	defer tx.Commit()
	ec := db.getEC(tx)
	defer db.putEC(ec)
	ec.acq = a
	args := func(cls *schema.Class, name string) []Value {
		m := cls.Resolve(name)
		out := make([]Value, len(m.Params))
		for i := range out {
			out[i] = storage.IntV(1)
			if name == "rename" {
				out[i] = storage.StrV("s")
			}
		}
		return out
	}
	end := func(err error) {
		if err != nil {
			fmt.Fprintf(b, " -> ERR %s", err)
		}
		b.WriteString("\n")
	}

	for i, cls := range sch.Order {
		for _, name := range cls.MethodList {
			mid, _ := db.MethodID(name)
			fmt.Fprintf(b, "send %s.%s:", cls.Name, name)
			ec.steps = db.MaxSteps
			_, err := ec.topSend(seeded[i].OID, mid, args(cls, name))
			end(err)
		}
	}
	for _, cls := range sch.Order {
		for _, name := range cls.MethodList {
			mid, _ := db.MethodID(name)
			for _, hier := range []bool{false, true} {
				fmt.Fprintf(b, "scan %s.%s hier=%t:", cls.Name, name, hier)
				ec.steps = db.MaxSteps
				_, err := ec.scanDomain(cls, mid, hier, nil, args(cls, name))
				end(err)
			}
		}
	}
	for _, cls := range sch.Order {
		fmt.Fprintf(b, "create %s:", cls.Name)
		_, err := ec.create(cls, nil)
		end(err)
	}
	for i, cls := range sch.Order {
		fmt.Fprintf(b, "delete %s:", cls.Name)
		end(db.rt.class(cls).delete.acquire(a, uint64(seeded[i].OID)))
	}
}

// TestLockPlanGolden pins, for every strategy over the paper's Figure 1
// and the banking and CAD schemas, the exact sequence and multiplicity of
// lock requests each execution event issues. It is the equivalence proof
// for any change to how strategies are represented: the protocols may be
// rewritten, the requests may not move.
//
// Regenerate (only after deliberately changing a protocol):
//
//	go test ./internal/engine/ -run TestLockPlanGolden -update-golden
func TestLockPlanGolden(t *testing.T) {
	schemas := []struct{ name, src string }{
		{"figure1", paperex.Figure1},
		{"banking", loadSchema(t, "banking")},
		{"cad", loadSchema(t, "cad")},
	}
	var b strings.Builder
	for _, s := range Strategies() {
		for _, sc := range schemas {
			fmt.Fprintf(&b, "== %s %s\n", s.Name(), sc.name)
			b.WriteString(lockPlanTranscript(t, sc.src, s))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "lockplans.golden")
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
		t.Errorf("lock requests moved.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// intentionAcquirer collects, per class or relation resource, the
// intention modes a strategy takes there.
type intentionAcquirer map[lock.ResourceID]map[lock.Mode]bool

func (a intentionAcquirer) Acquire(res lock.ResourceID, mode lock.Mode) error {
	if (res.Kind == lock.KindClass || res.Kind == lock.KindRelation) && lock.IsIntention(mode) {
		if a[res] == nil {
			a[res] = make(map[lock.Mode]bool)
		}
		a[res][mode] = true
	}
	return nil
}

// TestIntentionModesCoexist pins the invariant the lock manager's
// class-lock partitioning stands on: within each protocol, every
// intention mode its plans take on a class or relation is compatible
// with every other one taken there. The manager puts an intention lock
// on one of several partitions of the class, so two conflicting
// intention modes could meet on different partitions and never see each
// other. Open already refuses such plans (checkIntentions); this test
// checks the requests the events actually issue.
func TestIntentionModesCoexist(t *testing.T) {
	schemas := []struct{ name, src string }{
		{"figure1", paperex.Figure1},
		{"banking", loadSchema(t, "banking")},
		{"cad", loadSchema(t, "cad")},
	}
	for _, s := range Strategies() {
		for _, sc := range schemas {
			got := intentionAcquirer{}
			var labels strings.Builder
			driveLockEvents(t, sc.src, s, &labels, func(*Runtime) Acquirer { return got })
			if len(got) == 0 {
				t.Errorf("%s %s: no intention lock on any class or relation", s.Name(), sc.name)
			}
			for res, modes := range got {
				for a := range modes {
					for b := range modes {
						if !a.Compatible(b) {
							t.Errorf("%s %s: intention modes %s and %s conflict on %v",
								s.Name(), sc.name, a, b, res)
						}
					}
				}
			}
		}
	}
}
