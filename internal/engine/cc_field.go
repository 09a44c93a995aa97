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
//
// It is the one protocol with a run-time event outside its plans: the
// field lock of every access (fieldLocks; see execCtx.lockField).
// Writers of different fields coexist, but a field lock is exclusive per
// slot, so the slot-level read-modify-write race cannot arise and no
// execution latch is needed (field locks are taken mid-frame, so holding
// one would deadlock). FineCC's writers of disjoint fields rely on the
// same argument.
type FieldCC struct{}

// Name implements Strategy.
func (FieldCC) Name() string { return "field" }

func (FieldCC) protocol() protocol {
	// Whole-extent accesses and creation fall back to class granularity,
	// as in the read/write protocols.
	p := RWCC{}.protocol()
	p.fieldLocks = true
	// An intention lock on the class, so that extent scans still
	// serialize against individual accesses; the activation itself, and
	// each visited instance of a scan, lock nothing — conflicts
	// materialise at the fields.
	p.top = func(m site) lockPlan { return lockPlan{{lock.ClassRes(m.cls.ID), rwIntentMode(m.tav())}} }
	p.nested = none
	p.scanInstance = none
	// Deletion write-locks every field of the instance.
	p.delete = func(cls *schema.Class) lockPlan {
		var out lockPlan
		for _, f := range cls.Fields {
			out = append(out, lockStep{lock.FieldRes(0, int32(f.ID)), lock.X})
		}
		return append(out, lockStep{lock.ClassRes(cls.ID), lock.IX})
	}
	return p
}
