package engine

import (
	"sort"

	"repro/internal/core"
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
//     of every instance) while T4 locks only r2;
//   - the relational engine locks a whole statement's access set up
//     front, so nested sends lock nothing.
//
// Tuple writes lock exclusively per relation of the 1NF decomposition,
// so two writers of one slot never coexist.
type RelCC struct{}

// Name implements Strategy.
func (RelCC) Name() string { return "relational" }

func (RelCC) protocol() protocol {
	return protocol{
		top: func(m site) lockPlan {
			return m.perRelation(func(r relLock) lockPlan {
				return lockPlan{{lock.RelationRes(r.class), rwIntentMode(r.write)}, {lock.TupleRes(r.class, 0), rwInstanceMode(r.write)}}
			})
		},
		nested: none,
		scanInstance: func(m site) lockPlan {
			return m.perRelation(func(r relLock) lockPlan {
				return lockPlan{{lock.TupleRes(r.class, 0), rwInstanceMode(r.write)}}
			})
		},
		scan: overDomain(func(m site, hier bool) lockPlan {
			return m.perRelation(func(r relLock) lockPlan {
				if hier {
					return lockPlan{{lock.RelationRes(r.class), rwInstanceMode(r.write)}}
				}
				return lockPlan{{lock.RelationRes(r.class), rwIntentMode(r.write)}}
			})
		}),
		// Insert into, or delete the instance's tuple from, every relation
		// of the class's linearization.
		create: func(cls *schema.Class) lockPlan {
			var p lockPlan
			for _, anc := range cls.Lin {
				p = append(p, lockStep{lock.RelationRes(anc.ID), lock.IX})
			}
			return p
		},
		delete: func(cls *schema.Class) lockPlan {
			var p lockPlan
			for _, anc := range cls.Lin {
				p = append(p, lockStep{lock.RelationRes(anc.ID), lock.IX}, lockStep{lock.TupleRes(anc.ID, 0), lock.X})
			}
			return p
		},
	}
}

// relLock is one relation a method execution touches in the 1NF
// decomposition: the relation's class ID and whether the method's
// transitive effect writes it.
type relLock struct {
	class uint32
	write bool
}

// perRelation concatenates steps over the relations the method touches
// on proper instances of the site's class, in buildRelPlan order.
func (m site) perRelation(steps func(r relLock) lockPlan) lockPlan {
	tav, _ := m.c.TAV(m.cls, m.name)
	var p lockPlan
	for _, r := range buildRelPlan(m.c, m.cls, tav) {
		p = append(p, steps(r)...)
	}
	return p
}

// buildRelPlan computes the relation-level lock plan of one method on
// proper instances of one class under the 1NF decomposition: the
// per-relation modes implied by the TAV, with the key-write cascade
// (writing the root key write-locks the associated tuples of every
// subclass relation) folded in, sorted by class name for deterministic
// acquisition order.
func buildRelPlan(c *core.Compiled, cls *schema.Class, tav core.Vector) []relLock {
	s := c.Schema
	rels := make(map[uint32]bool)
	tav.Each(func(f schema.FieldID, m core.Mode) {
		owner := s.Field(f).Owner.ID
		if m == core.Write {
			rels[owner] = true
		} else if _, seen := rels[owner]; !seen {
			rels[owner] = false
		}
	})
	root := cls.Lin[len(cls.Lin)-1]
	keyWrite := len(root.OwnFields) > 0 && tav.Get(root.OwnFields[0].ID) == core.Write
	if keyWrite {
		for _, sub := range root.Domain() {
			if sub != root {
				rels[sub.ID] = true
			}
		}
	}
	out := make([]relLock, 0, len(rels))
	for id, write := range rels {
		out = append(out, relLock{class: id, write: write})
	}
	sort.Slice(out, func(i, j int) bool {
		return s.ClassByID(out[i].class).Name < s.ClassByID(out[j].class).Name
	})
	return out
}
