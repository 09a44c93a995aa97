// Package lock implements the lock manager underneath both the paper's
// fine concurrency control and the baseline protocols it is compared
// against: a strict-2PL lock table with FIFO queues, upgrade-priority
// conversions, waits-for deadlock detection and statistics.
//
// Lock modes are pluggable. The paper's protocol locks instances with
// per-class *method* access modes (section 5.1) and classes with
// (mode, hierarchical) pairs (section 5.2); the read/write baselines use
// Gray's classical IS/IX/S/SIX/X hierarchy; the field-locking comparator
// uses plain read/write modes on (instance, field) resources. All of
// them implement the Mode interface.
package lock

import (
	"fmt"

	"repro/internal/core"
)

// Mode is a lock mode. Compatible must be symmetric and is only ever
// asked about two modes requested on the *same* resource.
type Mode interface {
	Compatible(other Mode) bool
	String() string
}

// MethodMode locks one instance in the access mode of a method — the
// translation of a transitive access vector into "a conventional access
// mode" (section 5.1). Compatibility is one table lookup, which is the
// paper's point (2): run-time checking of commutativity is as efficient
// as for classical compatibility.
type MethodMode struct {
	Table *core.Table
	Idx   int
}

// Compatible implements Mode.
func (m MethodMode) Compatible(other Mode) bool {
	switch o := other.(type) {
	case MethodMode:
		if o.Table != m.Table {
			// Two proper instances of one class always share a table; a
			// mismatch means a protocol bug, so fail closed.
			return false
		}
		return m.Table.CommutesIdx(m.Idx, o.Idx)
	case ExtendMode:
		return true // instance-level locks never conflict with creation
	}
	return false
}

// String returns the method name of the mode.
func (m MethodMode) String() string {
	if m.Table == nil || m.Idx < 0 || m.Idx >= len(m.Table.Methods) {
		return "method(?)"
	}
	return m.Table.Methods[m.Idx]
}

// ClassMode locks a class as the pair (access mode, hierarchical flag)
// of section 5.2. An intentional lock (Hier=false) announces instance-
// level locking below; a hierarchical lock (Hier=true) implicitly locks
// every instance of the class. Two intentional locks always coexist —
// their conflicts are resolved on the instances — while any pair
// involving a hierarchical lock conflicts unless the modes commute
// (the T1/T2 discussion in section 5.2).
type ClassMode struct {
	Table *core.Table
	Idx   int
	Hier  bool
}

// Compatible implements Mode.
func (m ClassMode) Compatible(other Mode) bool {
	switch o := other.(type) {
	case ClassMode:
		if o.Table != m.Table {
			return false
		}
		if !m.Hier && !o.Hier {
			return true
		}
		return m.Table.CommutesIdx(m.Idx, o.Idx)
	case ExtendMode:
		// Creating an instance conflicts with whole-extent locks only.
		return !m.Hier
	}
	return false
}

// String renders "(m, hierarchical)" or "(m, intentional)".
func (m ClassMode) String() string {
	name := "?"
	if m.Table != nil && m.Idx >= 0 && m.Idx < len(m.Table.Methods) {
		name = m.Table.Methods[m.Idx]
	}
	if m.Hier {
		return fmt.Sprintf("(%s,hier)", name)
	}
	return fmt.Sprintf("(%s,int)", name)
}

// PurgeMode locks an instance for deletion: it conflicts with every
// other instance-level mode, whatever the protocol — removing an object
// can never commute with anything touching it.
type PurgeMode struct{}

// Compatible implements Mode.
func (PurgeMode) Compatible(other Mode) bool { return false }

// String implements Mode.
func (PurgeMode) String() string { return "purge" }

// ExtendMode is taken on a class while creating or deleting an instance.
// Creation is outside the paper's protocol; we give it the weakest
// semantics that keeps extent scans serializable: it conflicts with
// hierarchical class locks (and with S/X class locks of the baselines)
// but not with intentional locks or other creations.
type ExtendMode struct{}

// Compatible implements Mode.
func (ExtendMode) Compatible(other Mode) bool {
	switch o := other.(type) {
	case ExtendMode:
		return true
	case ClassMode:
		return !o.Hier
	case RWMode:
		return o == IS || o == IX
	case MethodMode:
		return true
	}
	return false
}

// String implements Mode.
func (ExtendMode) String() string { return "extend" }

// IsIntention reports whether mode is an intention mode: an intentional
// ClassMode, ExtendMode, IS or IX. It only announces locking below, and
// within each protocol the intention modes that meet on one class or
// relation are pairwise compatible — "two intentional locks always
// coexist — their conflicts are resolved on the instances" (section
// 5.2). The lock manager relies on that to partition them (see
// classPartitions).
func IsIntention(mode Mode) bool {
	switch m := mode.(type) {
	case ClassMode:
		return !m.Hier
	case ExtendMode:
		return true
	case RWMode:
		return m == IS || m == IX
	}
	return false
}
