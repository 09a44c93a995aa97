// Package engine executes methods against the object store under a
// pluggable concurrency-control strategy. The interpreter implements the
// calling mechanism of section 2.2 — late binding for self-directed
// messages, prefixed (super) calls, messages to referenced instances —
// and takes every lock from a strategy's lock plans, so the paper's
// protocol (section 5.2) and the baselines it argues against (sections 3
// and 6) run the same workloads on the same substrate.
//
// A strategy is data. At Open it compiles, against the access vectors
// and modes of the compiled schema, to one lock plan per (class,
// method, event), stored in the Runtime's tables; at run time one
// executor walks the plan of the event at hand. "Which locks does event
// E take?" is therefore a table lookup made once, at schema build — the
// paper's advantage (2), run-time checking as cheap as a compatibility
// check — and the read/write and relational baselines differ from the
// paper's protocol only in the tables they build, which is advantage (5):
// they are subsumed by the same mechanism.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/schema"
)

// Acquirer is where an execution context's lock plans acquire. Every
// context runs inside a transaction; its acquirer either locks for real
// (the liveAcquirer getEC binds) or records the lock set it would take
// (a RecordingSession's Recorder: the section 5.2 scenario analysis in
// internal/bench).
type Acquirer interface {
	Acquire(res lock.ResourceID, mode lock.Mode) error
}

// liveAcquirer locks through the lock manager on behalf of one txn.
// trace, non-nil only while the flight recorder is armed for this
// transaction, receives a lock-wait event for every acquire that
// queued. done, non-nil only when the caller bound a cancellable
// context to the transaction, withdraws queued waits on cancellation.
type liveAcquirer struct {
	locks *lock.Manager
	txn   lock.TxnID
	trace *obs.TxnTrace
	done  <-chan struct{}
}

// Acquire implements Acquirer.
func (l liveAcquirer) Acquire(res lock.ResourceID, mode lock.Mode) error {
	waited, err := l.locks.AcquireWaitDone(l.txn, res, mode, l.done)
	if l.trace != nil && waited > 0 {
		l.trace.Add(obs.EvLockWait, waited, res.OID)
	}
	return err
}

// Recorder collects the lock set a strategy would take, deduplicated,
// in request order. It never blocks.
type Recorder struct {
	Requests []RecordedLock
	seen     map[RecordedLock]bool
}

// RecordedLock is one (resource, mode) pair.
type RecordedLock struct {
	Res  lock.ResourceID
	Mode lock.Mode
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: make(map[RecordedLock]bool)}
}

// Acquire implements Acquirer.
func (r *Recorder) Acquire(res lock.ResourceID, mode lock.Mode) error {
	rl := RecordedLock{Res: res, Mode: mode}
	if !r.seen[rl] {
		r.seen[rl] = true
		r.Requests = append(r.Requests, rl)
	}
	return nil
}

// Conflicts reports whether any lock recorded by r conflicts with any
// lock recorded by other on the same resource — i.e. whether the two
// transactions could NOT run concurrently under strict 2PL.
func (r *Recorder) Conflicts(other *Recorder) bool {
	byRes := make(map[lock.ResourceID][]lock.Mode, len(r.Requests))
	for _, rl := range r.Requests {
		byRes[rl.Res] = append(byRes[rl.Res], rl.Mode)
	}
	for _, rl := range other.Requests {
		for _, m := range byRes[rl.Res] {
			if !m.Compatible(rl.Mode) {
				return true
			}
		}
	}
	return false
}

// Strategy is a locking protocol: a name and the plan builders Open
// compiles it with. The six implementations are empty struct types.
type Strategy interface {
	Name() string
	protocol() protocol
}

// Strategies lists every protocol: the paper's, then the baselines.
func Strategies() []Strategy {
	return []Strategy{FineCC{}, RWCC{}, RWImplicitCC{}, RWAnnounceCC{}, FieldCC{}, RelCC{}}
}

// lockStep is one request of a lock plan.
type lockStep struct {
	res  lock.ResourceID
	mode lock.Mode // boxed once, at build: walking a plan allocates nothing
}

// lockPlan is the ordered lock requests of one event, duplicates
// included: a re-entrant request still costs a lock-manager call, and
// the baselines' per-message overhead is exactly that cost.
type lockPlan []lockStep

// acquire is the executor: it issues the plan's requests in order on
// behalf of receiver oid. Instance, tuple and field resources are
// templates the receiver's OID completes; class and relation resources
// are taken as built.
func (p lockPlan) acquire(a Acquirer, oid uint64) error {
	for _, st := range p {
		res := st.res
		if res.Kind != lock.KindClass && res.Kind != lock.KindRelation {
			res.OID = oid
		}
		if err := a.Acquire(res, st.mode); err != nil {
			return err
		}
	}
	return nil
}

// receiver is the plans' instance-granule template.
var receiver = lock.InstanceRes(0)

// methodPlans is every plan of one method of one class.
type methodPlans struct {
	top          lockPlan // a message arriving from outside: the paper's "top message", remote sends included
	nested       lockPlan // a self-directed message (plain or prefixed) during execution
	scanInstance lockPlan // one instance visited by an intentional scan
	// The whole domain rooted at the class, locked intentionally
	// (instances then lock one by one) or hierarchically (they do not).
	scanIntent, scanHier lockPlan
}

// protocol is a strategy written as plan builders, one per event.
// compilePlans calls each once per (class, method) of METHODS(C) — the
// create and delete builders once per class — and stores the results in
// the classRT tables the executor walks.
type protocol struct {
	// concurrentWriters: the protocol grants commuting method modes, so
	// declared (escrow-style) commutativity can admit concurrent writers
	// of one slot. True only for the fine method-mode tables; the
	// runtime builds escrow-slot masks for it alone, and activations
	// writing a masked slot serialize on the instance's execution latch.
	// Such a protocol's nested plans must be empty: they run while the
	// latch is held.
	concurrentWriters bool
	// fieldLocks: every field access takes its own (instance, field)
	// lock at run time — the field-locking comparator, and only it.
	fieldLocks bool

	top, nested, scanInstance func(m site) lockPlan
	scan                      func(root site, hier bool) lockPlan
	create, delete            func(cls *schema.Class) lockPlan
}

// site is one method of one class as the plan builders see it: the
// compile-time artefacts the paper's analysis produced for it.
type site struct {
	c    *core.Compiled
	cls  *schema.Class
	name string
}

// dav and tav classify the method as a writer by its direct and by its
// transitive access vector.
func (m site) dav() bool {
	v, _ := m.c.DAV(m.cls, m.name)
	return v.HasWrite()
}

func (m site) tav() bool {
	v, _ := m.c.TAV(m.cls, m.name)
	return v.HasWrite()
}

// methodMode and classMode are the paper's instance and class modes of
// the method (section 5.2).
func (m site) methodMode() lock.Mode {
	t := m.c.Class(m.cls.Name).Table
	return lock.MethodMode{Table: t, Idx: t.ModeIndex(m.name)}
}

func (m site) classMode(hier bool) lock.Mode {
	t := m.c.Class(m.cls.Name).Table
	return lock.ClassMode{Table: t, Idx: t.ModeIndex(m.name), Hier: hier}
}

// none is the plan of an event a protocol does not control.
func none(site) lockPlan { return nil }

// overDomain folds a per-class scan builder over the domain rooted at
// the scanned class, in Domain order: the explicit locking every
// protocol but the implicit one performs.
func overDomain(f func(m site, hier bool) lockPlan) func(site, bool) lockPlan {
	return func(root site, hier bool) lockPlan {
		var p lockPlan
		for _, cls := range root.cls.Domain() {
			p = append(p, f(site{root.c, cls, root.name}, hier)...)
		}
		return p
	}
}

// rwInstanceMode and rwIntentMode are the read/write baselines' modes
// on a granule and on its container, for a reader or a writer.
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

// compilePlans builds protocol p into the runtime's class tables.
func (rt *Runtime) compilePlans(p protocol) {
	c := rt.Compiled
	s := c.Schema
	for _, cls := range s.Order {
		crt := rt.class(cls)
		crt.plans = make([]methodPlans, s.NumMethodNames())
		for _, name := range cls.MethodList {
			mid, _ := s.MethodID(name)
			// Every method of METHODS(C) has an access mode: the class
			// table's method list is METHODS(C) and core.Compile interns
			// every name of it. Only a hand-built Compiled can miss one,
			// and it fails here, at Open, not at its first send. Events
			// naming a method outside METHODS(C) are rejected before any
			// plan is looked up (no program, or no ResolveID).
			if c.Class(cls.Name).Table.ModeIndexID(mid) < 0 {
				panic(fmt.Errorf("engine: no access mode for %s.%s", cls.Name, name))
			}
			m := site{c, cls, name}
			crt.plans[mid] = methodPlans{
				top:          p.top(m),
				nested:       p.nested(m),
				scanInstance: p.scanInstance(m),
				scanIntent:   p.scan(m, false),
				scanHier:     p.scan(m, true),
			}
		}
		crt.create = p.create(cls)
		crt.delete = p.delete(cls)
	}
	rt.checkIntentions()
}

// checkIntentions panics unless, on every class and relation, the
// intention modes the compiled plans take there are pairwise compatible.
// The lock manager stands on that: it puts an intention lock
// (lock.IsIntention) on one of several partitions of the resource, where
// two of them need never meet, so a protocol that issued a conflicting
// pair would lose serializability silently. Like a missing access mode,
// that fails at Open.
func (rt *Runtime) checkIntentions() {
	seen := make(map[lock.ResourceID][]lock.Mode)
	note := func(p lockPlan) {
		for _, st := range p {
			res := st.res
			if res.Kind != lock.KindClass && res.Kind != lock.KindRelation || !lock.IsIntention(st.mode) ||
				slices.Contains(seen[res], st.mode) {
				continue
			}
			for _, o := range seen[res] {
				if !o.Compatible(st.mode) {
					panic(fmt.Errorf("engine: intention modes %s and %s conflict on %v", o, st.mode, res))
				}
			}
			seen[res] = append(seen[res], st.mode)
		}
	}
	for _, cls := range rt.Compiled.Schema.Order {
		crt := rt.class(cls)
		for _, mp := range crt.plans {
			for _, p := range []lockPlan{mp.top, mp.nested, mp.scanInstance, mp.scanIntent, mp.scanHier} {
				note(p)
			}
		}
		note(crt.create)
		note(crt.delete)
	}
}
