package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/schema"
)

// Runtime is the engine's precomputed view of a compiled schema under
// one strategy: every lock plan, snapshot classification and compiled
// program the run-time path can ever need, materialised once at Open
// into dense arrays keyed by interned class and method IDs. A top-level
// send costs two array loads and a walk of its lock plan — no string
// hashing, no map lookups, no interface boxing, no Domain() walks and
// no heap allocation on the warm path.
type Runtime struct {
	Compiled *core.Compiled
	classes  []classRT // indexed by schema.Class.ID
}

// classRT is the per-class slice of the Runtime.
type classRT struct {
	// Dense per-MethodID tables (length = schema.NumMethodNames()).
	snapRead []bool // method statically read-only per its TAV: eligible for the snapshot path

	// escrowSlots[mid] marks, per storage slot, the integer fields the
	// method writes under declared (escrow) commutativity: some mode
	// that commutes with the method's own also writes the field, so the
	// lock manager admits two such writers of one instance at once.
	// Writes to these slots are undone and redo-logged as deltas, not
	// images. nil when the method has none (the common case).
	escrowSlots [][]bool

	// progs is the compiled dispatch table: METHODS(C) as slot-addressed
	// programs, indexed by MethodID. SendID goes from the interned ID to
	// compiled code with one array load — no resolution, no names.
	progs []*schema.Program

	// The strategy compiled to data (cc.go): the lock plans of every
	// method, by MethodID, and of instance creation and deletion.
	plans          []methodPlans
	create, delete lockPlan
}

// newRuntime precomputes the run-time tables of a compiled schema under
// protocol p. fuse selects the dispatched programs: the fused twins
// (superinstructions, schema.Fuse) by default, or with fuse=false the
// compiler's base programs — the reference semantics the differential
// golden suite replays. Either way every nested send pushes a frame.
func newRuntime(c *core.Compiled, p protocol, fuse bool) *Runtime {
	s := c.Schema
	nm := s.NumMethodNames()
	rt := &Runtime{Compiled: c, classes: make([]classRT, s.NumClasses())}
	for _, cls := range s.Order {
		crt := &rt.classes[cls.ID]
		crt.snapRead = make([]bool, nm)
		crt.progs = make([]*schema.Program, nm)
		for _, name := range cls.MethodList {
			mid, ok := s.MethodID(name)
			if !ok {
				continue
			}
			// The access-vector payoff the snapshot path rides on: a
			// write-free TAV proves the method's whole transitive closure
			// of self-sends never mutates, so a transaction built from
			// such methods can run lock-free against committed versions.
			// Decided here, at schema build — the run-time check is one
			// bool load.
			tav, tavOK := c.TAV(cls, name)
			crt.snapRead[mid] = tavOK && !tav.HasWrite()
			if m := cls.Resolve(name); m != nil {
				crt.progs[mid] = m.Program
				if fuse {
					crt.progs[mid] = m.Program.Fused
				}
			}
		}
		if p.concurrentWriters {
			crt.escrowSlots = buildEscrowSlots(c, cls, c.Class(cls.Name).Table, nm)
		}
	}
	rt.compilePlans(p)
	return rt
}

// buildEscrowSlots classifies, per method, the slots whose writes run
// under declared (escrow) commutativity: slot s is escrow for method m
// iff m's transitive vector writes s's field and some mode that commutes
// with m's also writes it. Such a field is an integer, the only type
// with a delta form: core.Compile rejects a declaration under which two
// commuting methods write any other field. Decided here, at schema
// build, like the snapshot classification, and only for protocols that
// grant commuting modes to concurrent writers (FineCC): the mask is the
// engine's one latch decision, and the run-time check is one mask load
// per frame and per field store.
func buildEscrowSlots(c *core.Compiled, cls *schema.Class, table *core.Table, nm int) [][]bool {
	n := table.NumModes()
	if n == 0 {
		return nil
	}
	tavs := make([]core.Vector, n)
	for j, name := range table.Methods {
		tavs[j], _ = c.TAV(cls, name)
	}
	var out [][]bool
	s := c.Schema
	for _, name := range cls.MethodList {
		mid, ok := s.MethodID(name)
		if !ok {
			continue
		}
		i := table.ModeIndexID(mid)
		if i < 0 {
			continue
		}
		var mask []bool
		for slot, f := range cls.Fields {
			if tavs[i].Get(f.ID) != core.Write {
				continue
			}
			for j := 0; j < n; j++ {
				// Two writers of one field only commute when declared:
				// the derived relation would conflict them. So this
				// conjunction is exactly "slot written under escrow".
				if table.CommutesIdx(i, j) && tavs[j].Get(f.ID) == core.Write {
					if mask == nil {
						mask = make([]bool, len(cls.Fields))
					}
					mask[slot] = true
					break
				}
			}
		}
		if mask != nil {
			if out == nil {
				out = make([][]bool, nm)
			}
			out[mid] = mask
		}
	}
	return out
}

// class returns the run-time slice of a class.
func (rt *Runtime) class(c *schema.Class) *classRT { return &rt.classes[c.ID] }

// progAt returns the compiled program bound to mid in this class, or
// nil when METHODS(C) has no such name (or mid is out of range, which
// an API caller can feed SendID).
func (crt *classRT) progAt(mid schema.MethodID) *schema.Program {
	if int(mid) >= len(crt.progs) {
		return nil
	}
	return crt.progs[mid]
}

// escrowMaskAt returns the method's escrow-slot mask in this class, or
// nil when no slot it writes has a declared-commuting co-writer.
func (crt *classRT) escrowMaskAt(mid schema.MethodID) []bool {
	if crt.escrowSlots == nil || int(mid) >= len(crt.escrowSlots) {
		return nil
	}
	return crt.escrowSlots[mid]
}

// MethodID interns a method name (one map lookup — the only string
// touch of a send, paid at the API boundary).
func (rt *Runtime) MethodID(name string) (schema.MethodID, bool) {
	return rt.Compiled.Schema.MethodID(name)
}

// MethodName reverses an interned method ID for diagnostics.
func (rt *Runtime) MethodName(mid schema.MethodID) string {
	return rt.Compiled.Schema.MethodName(mid)
}

// ResourceLabel renders a lock resource with schema names restored —
// the human-readable form the numeric ResourceID gave up.
func (rt *Runtime) ResourceLabel(res lock.ResourceID) string {
	className := func(id uint32) string {
		if c := rt.Compiled.Schema.ClassByID(id); c != nil {
			return c.Name
		}
		return fmt.Sprintf("#%d", id)
	}
	switch res.Kind {
	case lock.KindClass:
		return "class:" + className(res.Class)
	case lock.KindRelation:
		return "rel:" + className(res.Class)
	case lock.KindTuple:
		return fmt.Sprintf("tuple:%s/%d", className(res.Class), res.OID)
	default:
		return res.String()
	}
}
