package engine

import (
	"repro/internal/lock"
	"repro/internal/schema"
)

// FineCC is the paper's protocol (section 5.2), built on the compiled
// per-class access modes:
//
//   - a top-level message M to instance i of proper class C acquires the
//     access mode of M on i and the intentional pair (M, false) on C —
//     exactly two lock requests, however much code reuse the method
//     performs;
//   - self-directed messages acquire nothing: their effects are already
//     folded into the top method's transitive access vector, which is how
//     the locking-overhead and escalation problems of section 3 vanish;
//   - a domain access locks (M, hier) on every class of the domain;
//     hierarchical accesses lock no instances at all, intentional ones
//     lock each visited instance in mode M of its own proper class;
//   - creation takes the extend pseudo-mode on the class (see
//     lock.ExtendMode; creation is outside the paper's protocol).
//
// Every mode and resource below comes from the Runtime's precomputed
// tables: a warm TopSend performs zero heap allocations.
type FineCC struct{}

// Name implements Strategy.
func (FineCC) Name() string { return "fine" }

// ConcurrentWriters: method modes derived from commutativity tables can
// grant two writers of one instance at once — declared escrow pairs
// even share a slot — so writing activations serialize on the
// instance's execution latch. The in-frame hooks below are no-ops,
// which is what makes holding the latch across a frame deadlock-free.
func (FineCC) ConcurrentWriters() bool { return true }

// TopSend implements Strategy.
func (FineCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	crt := rt.class(cls)
	idx := crt.table.ModeIndexID(mid)
	if idx < 0 {
		return rt.errNoMode(cls, mid)
	}
	if err := a.Acquire(lock.InstanceRes(oid), crt.methodModes[idx]); err != nil {
		return err
	}
	return a.Acquire(crt.classRes, crt.intModes[idx])
}

// NestedSend implements Strategy: self-directed messages are free.
func (FineCC) NestedSend(Acquirer, *Runtime, uint64, *schema.Class, schema.MethodID) error {
	return nil
}

// FieldAccess implements Strategy: field effects were pre-declared by
// the transitive access vector; nothing to do at run time.
func (FineCC) FieldAccess(Acquirer, *Runtime, uint64, *schema.Class, *schema.Field, bool) error {
	return nil
}

// Scan implements Strategy.
func (FineCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	for _, cls := range rt.class(root).domain {
		crt := rt.class(cls)
		idx := crt.table.ModeIndexID(mid)
		if idx < 0 {
			return rt.errNoMode(cls, mid)
		}
		m := crt.intModes[idx]
		if hier {
			m = crt.hierModes[idx]
		}
		if err := a.Acquire(crt.classRes, m); err != nil {
			return err
		}
	}
	return nil
}

// ScanInstance implements Strategy.
func (FineCC) ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	crt := rt.class(cls)
	idx := crt.table.ModeIndexID(mid)
	if idx < 0 {
		return rt.errNoMode(cls, mid)
	}
	return a.Acquire(lock.InstanceRes(oid), crt.methodModes[idx])
}

// Create implements Strategy.
func (FineCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	return a.Acquire(rt.class(cls).classRes, lock.ExtendMode{})
}

// Delete implements Strategy: removal commutes with nothing touching the
// instance, and shrinks the extent like creation grows it.
func (FineCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	if err := a.Acquire(lock.InstanceRes(oid), lock.PurgeMode{}); err != nil {
		return err
	}
	return a.Acquire(rt.class(cls).classRes, lock.ExtendMode{})
}
