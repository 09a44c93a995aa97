package engine

import (
	"repro/internal/lock"
	"repro/internal/schema"
)

// RelCC models the relational comparison of sections 3 and 5.2: the
// hierarchy is decomposed into first normal form, one relation per class
// holding the fields that class declares, the OID playing the role of
// the primary key of the root relation and of a foreign key everywhere
// else. An instance of class C is the join of its tuples in the
// relations of C's linearization.
//
// Locking follows the paper's relational analysis:
//
//   - a method execution tuple-locks (S or X) exactly the relations whose
//     fields its transitive access vector touches, with IS/IX intention
//     locks on those relations — "first normal form decomposition looks
//     like coarse access vectors" (section 6);
//   - writing the key field (the first field of the root class, the
//     paper's f1) cascades a write lock onto the associated tuples of
//     every subclass relation — why T1 "locks one tuple of r1 in write
//     mode and the associated tuple of r2 in write mode too";
//   - whole-extent accesses lock the relations themselves (S or X), which
//     is how T2 "locks both relations in write mode" (m1 writes the key
//     of every instance) while T4 locks only r2.
//
// The per-(class, method) relation plan — modes, key-write cascade,
// deterministic acquisition order — is precomputed in the Runtime.
type RelCC struct{}

// Name implements Strategy.
func (RelCC) Name() string { return "relational" }

// ConcurrentWriters: tuple writes lock exclusively per relation of the
// 1NF decomposition, so two writers of one slot never coexist.
func (RelCC) ConcurrentWriters() bool { return false }

// relPlan returns the precomputed per-relation lock plan of a method
// execution on proper instances of cls.
func relPlan(rt *Runtime, cls *schema.Class, mid schema.MethodID) ([]relLock, error) {
	crt := rt.class(cls)
	if crt.table.ModeIndexID(mid) < 0 {
		return nil, rt.errNoMode(cls, mid)
	}
	return crt.relPlans[mid], nil
}

// TopSend implements Strategy.
func (RelCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	plan, err := relPlan(rt, cls, mid)
	if err != nil {
		return err
	}
	for _, pl := range plan {
		if err := a.Acquire(pl.rel, rwIntentMode(pl.write)); err != nil {
			return err
		}
		if err := a.Acquire(lock.TupleRes(pl.class, oid), rwInstanceMode(pl.write)); err != nil {
			return err
		}
	}
	return nil
}

// NestedSend implements Strategy: the relational engine locked the whole
// statement's access set up front.
func (RelCC) NestedSend(Acquirer, *Runtime, uint64, *schema.Class, schema.MethodID) error {
	return nil
}

// FieldAccess implements Strategy.
func (RelCC) FieldAccess(Acquirer, *Runtime, uint64, *schema.Class, *schema.Field, bool) error {
	return nil
}

// Scan implements Strategy.
func (RelCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	for _, cls := range rt.class(root).domain {
		plan, err := relPlan(rt, cls, mid)
		if err != nil {
			return err
		}
		for _, pl := range plan {
			mode := rwIntentMode(pl.write)
			if hier {
				mode = rwInstanceMode(pl.write)
			}
			if err := a.Acquire(pl.rel, mode); err != nil {
				return err
			}
		}
	}
	return nil
}

// ScanInstance implements Strategy.
func (RelCC) ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	plan, err := relPlan(rt, cls, mid)
	if err != nil {
		return err
	}
	for _, pl := range plan {
		if err := a.Acquire(lock.TupleRes(pl.class, oid), rwInstanceMode(pl.write)); err != nil {
			return err
		}
	}
	return nil
}

// Create implements Strategy: insert into the relations of the class's
// linearization.
func (RelCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	for _, anc := range cls.Lin {
		if err := a.Acquire(lock.RelationRes(anc.ID), lock.IX); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements Strategy: delete the instance's tuple from every
// relation of its linearization.
func (RelCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	for _, anc := range cls.Lin {
		if err := a.Acquire(lock.RelationRes(anc.ID), lock.IX); err != nil {
			return err
		}
		if err := a.Acquire(lock.TupleRes(anc.ID, oid), lock.X); err != nil {
			return err
		}
	}
	return nil
}
