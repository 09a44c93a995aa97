package engine

import (
	"repro/internal/lock"
	"repro/internal/schema"
)

// RWImplicitCC is the ORION-style baseline ([8] Garza & Kim; [17] Malta
// & Martinez'91) that the paper contrasts with in section 5: read/write
// modes on instances with *implicit* locking along the inheritance
// graph. A whole-extent access locks only the root class of the scanned
// domain — subclasses are covered implicitly — which is sound because
// every individual access announces intention locks on the proper class
// *and all its ancestors*. The paper's point: this trick "was possible
// only because access modes on instances were mere reads and writes and,
// consequently, characterized any method in any class"; per-method modes
// are not defined on ancestor classes, so the fine protocol must lock
// explicitly (which ORION's designers had chosen anyway, "somewhat
// arbitrarily" [12]).
//
// Mechanically it is RWCC with two changes: intention locks propagate to
// ancestors, and hierarchical scans lock only the domain root.
type RWImplicitCC struct{}

// Name implements Strategy.
func (RWImplicitCC) Name() string { return "rw-implicit" }

// ConcurrentWriters: write locks are exclusive (implicitly along the
// inheritance graph), so writers never coexist.
func (RWImplicitCC) ConcurrentWriters() bool { return false }

// intentUpward takes the intention mode on cls and every ancestor,
// using the Runtime's precomputed linearization resources.
func intentUpward(a Acquirer, rt *Runtime, cls *schema.Class, writer bool) error {
	mode := rwIntentMode(writer)
	for _, res := range rt.class(cls).linRes {
		if err := a.Acquire(res, mode); err != nil {
			return err
		}
	}
	return nil
}

// TopSend implements Strategy.
func (RWImplicitCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	if err := a.Acquire(lock.InstanceRes(oid), rwInstanceMode(w)); err != nil {
		return err
	}
	return intentUpward(a, rt, cls, w)
}

// NestedSend implements Strategy: per-message control with escalation,
// as in RWCC, intention locks escalating up the chain.
func (RWImplicitCC) NestedSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	if err := a.Acquire(lock.InstanceRes(oid), rwInstanceMode(w)); err != nil {
		return err
	}
	if !w {
		return nil
	}
	return intentUpward(a, rt, cls, w)
}

// FieldAccess implements Strategy.
func (RWImplicitCC) FieldAccess(Acquirer, *Runtime, uint64, *schema.Class, *schema.Field, bool) error {
	return nil
}

// Scan implements Strategy: the implicit trick — a hierarchical access
// locks the domain root only (S or X), covering every subclass; an
// intentional access announces IS/IX on the root's ancestors and leaves
// instances to ScanInstance.
func (RWImplicitCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	w, err := tavWriter(rt, root, mid)
	if err != nil {
		return err
	}
	if hier {
		crt := rt.class(root)
		if err := a.Acquire(crt.classRes, rwInstanceMode(w)); err != nil {
			return err
		}
		// Ancestors of the root still see the intention.
		mode := rwIntentMode(w)
		for _, res := range crt.linRes[1:] {
			if err := a.Acquire(res, mode); err != nil {
				return err
			}
		}
		return nil
	}
	return intentUpward(a, rt, root, w)
}

// ScanInstance implements Strategy: individual locks announce intentions
// on the instance's whole ancestor chain, which is what makes the
// implicit coverage of Scan sound.
func (RWImplicitCC) ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	if err := a.Acquire(lock.InstanceRes(oid), rwInstanceMode(w)); err != nil {
		return err
	}
	return intentUpward(a, rt, cls, w)
}

// Create implements Strategy.
func (RWImplicitCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	for _, res := range rt.class(cls).linRes {
		if err := a.Acquire(res, lock.IX); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements Strategy.
func (RWImplicitCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	if err := a.Acquire(lock.InstanceRes(oid), lock.X); err != nil {
		return err
	}
	return intentUpward(a, rt, cls, true)
}
