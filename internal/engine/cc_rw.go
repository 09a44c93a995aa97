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
//
// The write mode is exclusive at the instance granule, so two writers
// never coexist and no execution latch is needed.
type RWCC struct{}

// Name implements Strategy.
func (RWCC) Name() string { return "rw" }

func (RWCC) protocol() protocol {
	return protocol{
		top: func(m site) lockPlan { return rwPlan(m.cls, m.dav(), true) },
		// "If each message wants control, then invoking m1 … leads to
		// controlling concurrency thrice" (section 3). The nested control
		// touches the instance only; the class intention escalates too
		// when the nested method writes.
		nested:       func(m site) lockPlan { return rwPlan(m.cls, m.dav(), m.dav()) },
		scanInstance: func(m site) lockPlan { return rwPlan(m.cls, m.dav(), false) },
		// A whole-extent access knows the full effect: the transitive
		// classification, S/X on each class of the domain when
		// hierarchical, IS/IX when instances lock one by one.
		scan: overDomain(func(m site, hier bool) lockPlan {
			mode := rwIntentMode(m.tav())
			if hier {
				mode = rwInstanceMode(m.tav())
			}
			return lockPlan{{lock.ClassRes(m.cls.ID), mode}}
		}),
		create: func(cls *schema.Class) lockPlan { return lockPlan{{lock.ClassRes(cls.ID), lock.IX}} },
		delete: func(cls *schema.Class) lockPlan { return rwPlan(cls, true, true) },
	}
}

// rwPlan locks the receiver S or X and, withClass, its proper class IS
// or IX.
func rwPlan(cls *schema.Class, writer, withClass bool) lockPlan {
	p := lockPlan{{receiver, rwInstanceMode(writer)}}
	if withClass {
		p = append(p, lockStep{lock.ClassRes(cls.ID), rwIntentMode(writer)})
	}
	return p
}

// RWAnnounceCC is RWCC with the System R remedy applied: the top-level
// message announces the most exclusive mode it can ever need (the
// transitive classification), so nested messages find their mode already
// held and never escalate. System R measured that announcing avoids up
// to 76 % of deadlocks; the overhead problem (one control per message)
// remains — nested sends still request, re-entrantly. Announced modes
// are at most as permissive as rw's: writers stay exclusive.
type RWAnnounceCC struct{}

// Name implements Strategy.
func (RWAnnounceCC) Name() string { return "rw-announce" }

func (RWAnnounceCC) protocol() protocol {
	p := RWCC{}.protocol()
	p.top = func(m site) lockPlan { return rwPlan(m.cls, m.tav(), true) }
	p.nested = func(m site) lockPlan { return rwPlan(m.cls, m.dav(), false) }
	p.scanInstance = func(m site) lockPlan { return rwPlan(m.cls, m.tav(), false) }
	return p
}
