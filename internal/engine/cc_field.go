package engine

import (
	"repro/internal/lock"
	"repro/internal/schema"
)

// FieldCC models the run-time field-locking comparator of section 6
// (Agrawal & El Abbadi [1]): no per-method compile-time knowledge at
// all — each message is controlled when it activates, and each field the
// running method touches is locked individually, in read or write mode,
// at the moment of the access. The paper's assessment, which the
// experiments reproduce:
//
//   - it achieves field granularity (less conservative than transitive
//     access vectors — an untaken branch locks nothing);
//   - "as field locking is done individually at run-time, this technique
//     incurs a much higher overhead" — one lock request per field access
//     instead of one per top message;
//   - "the problems of multiple controls and deadlocks due to escalation
//     are not resolved" — reading a field and then assigning it upgrades
//     S → X at the field granule.
type FieldCC struct{}

// Name implements Strategy.
func (FieldCC) Name() string { return "field" }

// ConcurrentWriters: writers of different fields coexist, but a field
// lock is exclusive per slot, so the slot-level read-modify-write race
// cannot arise and no execution latch is needed (FieldAccess acquires
// locks mid-frame, so holding one would deadlock).
func (FieldCC) ConcurrentWriters() bool { return false }

// TopSend implements Strategy: an intention lock on the class so that
// extent scans still serialize against individual accesses.
func (FieldCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := tavWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return a.Acquire(rt.class(cls).classRes, rwIntentMode(w))
}

// NestedSend implements Strategy: the activation is registered but
// conflicts materialise at the fields, so nothing is locked here.
func (FieldCC) NestedSend(Acquirer, *Runtime, uint64, *schema.Class, schema.MethodID) error {
	return nil
}

// FieldAccess implements Strategy: the defining operation — one
// (instance, field) lock per access, S for reads, X for writes.
func (FieldCC) FieldAccess(a Acquirer, _ *Runtime, oid uint64, _ *schema.Class, f *schema.Field, write bool) error {
	return a.Acquire(lock.FieldRes(oid, int32(f.ID)), rwInstanceMode(write))
}

// Scan implements Strategy: whole-extent accesses fall back to class
// granularity, as in the read/write protocols.
func (FieldCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	return RWCC{}.Scan(a, rt, root, mid, hier)
}

// ScanInstance implements Strategy: fields lock as they are touched.
func (FieldCC) ScanInstance(Acquirer, *Runtime, uint64, *schema.Class, schema.MethodID) error {
	return nil
}

// Create implements Strategy.
func (FieldCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	return RWCC{}.Create(a, rt, cls)
}

// Delete implements Strategy: conflicts materialise at the field
// granule, so deletion write-locks every field of the instance.
func (FieldCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	for _, f := range cls.Fields {
		if err := a.Acquire(lock.FieldRes(oid, int32(f.ID)), lock.X); err != nil {
			return err
		}
	}
	return a.Acquire(rt.class(cls).classRes, lock.IX)
}
