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
// ancestors, and hierarchical scans lock only the domain root. Write
// locks stay exclusive (implicitly along the inheritance graph), so
// writers never coexist.
type RWImplicitCC struct{}

// Name implements Strategy.
func (RWImplicitCC) Name() string { return "rw-implicit" }

func (RWImplicitCC) protocol() protocol {
	return protocol{
		top: func(m site) lockPlan { return implicitPlan(m.cls, m.dav(), true) },
		// Per-message control with escalation, as in RWCC, intention
		// locks escalating up the chain.
		nested: func(m site) lockPlan { return implicitPlan(m.cls, m.dav(), m.dav()) },
		// Individual locks announce intentions on the instance's whole
		// ancestor chain, which is what makes the implicit coverage of
		// the scan sound.
		scanInstance: func(m site) lockPlan { return implicitPlan(m.cls, m.dav(), true) },
		// The implicit trick: a hierarchical access locks the domain root
		// only (S or X), covering every subclass, and its ancestors still
		// see the intention; an intentional access announces IS/IX on the
		// root and its ancestors and leaves instances to scanInstance.
		scan: func(root site, hier bool) lockPlan {
			w := root.tav()
			if hier {
				p := lockPlan{{lock.ClassRes(root.cls.ID), rwInstanceMode(w)}}
				return append(p, alongLin(root.cls.Lin[1:], rwIntentMode(w))...)
			}
			return alongLin(root.cls.Lin, rwIntentMode(w))
		},
		create: func(cls *schema.Class) lockPlan { return alongLin(cls.Lin, lock.IX) },
		delete: func(cls *schema.Class) lockPlan { return implicitPlan(cls, true, true) },
	}
}

// implicitPlan locks the receiver S or X and, upward, the intention on
// its proper class and every ancestor.
func implicitPlan(cls *schema.Class, writer, upward bool) lockPlan {
	p := lockPlan{{receiver, rwInstanceMode(writer)}}
	if upward {
		p = append(p, alongLin(cls.Lin, rwIntentMode(writer))...)
	}
	return p
}

// alongLin takes mode on each class granule of a linearization segment.
func alongLin(lin []*schema.Class, mode lock.RWMode) lockPlan {
	p := make(lockPlan, len(lin))
	for i, c := range lin {
		p[i] = lockStep{lock.ClassRes(c.ID), mode}
	}
	return p
}
