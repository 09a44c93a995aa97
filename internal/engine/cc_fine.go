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
//     lock.ExtendMode; creation is outside the paper's protocol), and
//     removal commutes with nothing touching the instance.
//
// Method modes derived from commutativity tables can grant two writers
// of one instance at once. Writers of disjoint fields need nothing more,
// as under FieldCC. Declared escrow pairs share a slot, so activations
// of a method that writes such a slot (the compile-time escrow mask)
// serialize on the instance's execution latch; the empty nested plans
// are what make holding it across a frame deadlock-free.
type FineCC struct{}

// Name implements Strategy.
func (FineCC) Name() string { return "fine" }

func (FineCC) protocol() protocol {
	return protocol{
		concurrentWriters: true,
		top: func(m site) lockPlan {
			return lockPlan{{receiver, m.methodMode()}, {lock.ClassRes(m.cls.ID), m.classMode(false)}}
		},
		nested:       none,
		scanInstance: func(m site) lockPlan { return lockPlan{{receiver, m.methodMode()}} },
		scan: overDomain(func(m site, hier bool) lockPlan {
			return lockPlan{{lock.ClassRes(m.cls.ID), m.classMode(hier)}}
		}),
		create: func(cls *schema.Class) lockPlan {
			return lockPlan{{lock.ClassRes(cls.ID), lock.ExtendMode{}}}
		},
		delete: func(cls *schema.Class) lockPlan {
			return lockPlan{{receiver, lock.PurgeMode{}}, {lock.ClassRes(cls.ID), lock.ExtendMode{}}}
		},
	}
}
