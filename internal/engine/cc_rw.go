package engine

import (
	"repro/internal/lock"
	"repro/internal/schema"
)

// RWCC is the read/write baseline of section 3 — the behaviour of
// proposals that "only recognize read and write access modes" ([5], [8],
// [17]): every message, including self-directed ones, controls
// concurrency, locking the instance S or X according to the invoked
// method's *direct* classification (a method is a writer iff its own
// code assigns a field). It exhibits all three run-time problems the
// paper describes:
//
//	(i)   one instance is controlled once per message — invoking m1
//	      costs three instance-lock requests (m1, m2, m3);
//	(ii)  escalation: m1's own code reads nothing and writes nothing,
//	      so m1 starts S and the nested m2 upgrades to X, the System R
//	      deadlock pattern;
//	(iii) pseudo-conflicts: m2 and m4 are both writers, so they conflict
//	      although they touch disjoint fields.
type RWCC struct{}

// Name implements Strategy.
func (RWCC) Name() string { return "rw" }

// ConcurrentWriters: the write mode is exclusive at the instance
// granule, so two writers never coexist and no execution latch is
// needed.
func (RWCC) ConcurrentWriters() bool { return false }

// davWriter classifies the method by its direct access vector, from the
// Runtime's dense table.
func davWriter(rt *Runtime, cls *schema.Class, mid schema.MethodID) (bool, error) {
	crt := rt.class(cls)
	if crt.table.ModeIndexID(mid) < 0 {
		return false, rt.errNoMode(cls, mid)
	}
	return crt.davWrite[mid], nil
}

// tavWriter classifies by the transitive access vector — the "announce
// the more exclusive access mode" remedy cited from System R.
func tavWriter(rt *Runtime, cls *schema.Class, mid schema.MethodID) (bool, error) {
	crt := rt.class(cls)
	if crt.table.ModeIndexID(mid) < 0 {
		return false, rt.errNoMode(cls, mid)
	}
	return crt.tavWrite[mid], nil
}

func rwInstanceMode(writer bool) lock.RWMode {
	if writer {
		return lock.X
	}
	return lock.S
}

func rwIntentMode(writer bool) lock.RWMode {
	if writer {
		return lock.IX
	}
	return lock.IS
}

func rwSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, writer bool, withClass bool) error {
	if err := a.Acquire(lock.InstanceRes(oid), rwInstanceMode(writer)); err != nil {
		return err
	}
	if !withClass {
		return nil
	}
	return a.Acquire(rt.class(cls).classRes, rwIntentMode(writer))
}

// TopSend implements Strategy.
func (RWCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return rwSend(a, rt, oid, cls, w, true)
}

// NestedSend implements Strategy: "if each message wants control, then
// invoking m1 … leads to controlling concurrency thrice" (section 3).
func (RWCC) NestedSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	// The nested control touches the instance only; the class intention
	// lock is escalated too when the nested method writes.
	return rwSend(a, rt, oid, cls, w, w)
}

// FieldAccess implements Strategy: granularity stops at the instance.
func (RWCC) FieldAccess(Acquirer, *Runtime, uint64, *schema.Class, *schema.Field, bool) error {
	return nil
}

// Scan implements Strategy.
func (RWCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	for _, cls := range rt.class(root).domain {
		w, err := tavWriter(rt, cls, mid) // whole-extent access: the full effect is known
		if err != nil {
			return err
		}
		mode := rwIntentMode(w)
		if hier {
			mode = rwInstanceMode(w)
		}
		if err := a.Acquire(rt.class(cls).classRes, mode); err != nil {
			return err
		}
	}
	return nil
}

// ScanInstance implements Strategy.
func (RWCC) ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return a.Acquire(lock.InstanceRes(oid), rwInstanceMode(w))
}

// Create implements Strategy.
func (RWCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	return a.Acquire(rt.class(cls).classRes, lock.IX)
}

// Delete implements Strategy.
func (RWCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	if err := a.Acquire(lock.InstanceRes(oid), lock.X); err != nil {
		return err
	}
	return a.Acquire(rt.class(cls).classRes, lock.IX)
}

// RWAnnounceCC is RWCC with the System R remedy applied: the top-level
// message announces the most exclusive mode it can ever need (the
// transitive classification), so nested messages find their mode already
// held and never escalate. System R measured that announcing avoids up
// to 76 % of deadlocks; the overhead problem (one control per message)
// remains.
type RWAnnounceCC struct{}

// Name implements Strategy.
func (RWAnnounceCC) Name() string { return "rw-announce" }

// ConcurrentWriters: announced modes are at most as permissive as rw —
// writers stay exclusive.
func (RWAnnounceCC) ConcurrentWriters() bool { return false }

// TopSend implements Strategy.
func (RWAnnounceCC) TopSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := tavWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return rwSend(a, rt, oid, cls, w, true)
}

// NestedSend implements Strategy: still one control per message, but the
// mode was announced, so the acquisition is re-entrant.
func (RWAnnounceCC) NestedSend(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := davWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return rwSend(a, rt, oid, cls, w, false)
}

// FieldAccess implements Strategy.
func (RWAnnounceCC) FieldAccess(Acquirer, *Runtime, uint64, *schema.Class, *schema.Field, bool) error {
	return nil
}

// Scan implements Strategy.
func (RWAnnounceCC) Scan(a Acquirer, rt *Runtime, root *schema.Class, mid schema.MethodID, hier bool) error {
	return RWCC{}.Scan(a, rt, root, mid, hier)
}

// ScanInstance implements Strategy.
func (RWAnnounceCC) ScanInstance(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class, mid schema.MethodID) error {
	w, err := tavWriter(rt, cls, mid)
	if err != nil {
		return err
	}
	return a.Acquire(lock.InstanceRes(oid), rwInstanceMode(w))
}

// Create implements Strategy.
func (RWAnnounceCC) Create(a Acquirer, rt *Runtime, cls *schema.Class) error {
	return RWCC{}.Create(a, rt, cls)
}

// Delete implements Strategy.
func (RWAnnounceCC) Delete(a Acquirer, rt *Runtime, oid uint64, cls *schema.Class) error {
	return RWCC{}.Delete(a, rt, oid, cls)
}
