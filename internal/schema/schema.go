// Package schema implements the object-oriented data model of section 2
// of Malta & Martinez (ICDE'93): classes composed of typed instance
// variables (fields) and methods, related by simple or multiple
// inheritance, with overriding. Instances pertain to exactly one class;
// a class together with its transitive subclasses forms a *domain*.
//
// The package turns parsed mdl class declarations into a validated
// Schema: inheritance is linearized (C3), FIELDS(C) and METHODS(C) of
// definition 1 are materialised per class, and every field receives a
// global FieldID so access vectors (internal/core) can be joined across
// the classes of a hierarchy.
package schema

import (
	"fmt"
	"sort"

	"repro/internal/mdl"
)

// FieldType is the type of an instance variable.
type FieldType int

// Field types. The paper distinguishes base-typed fields (integer,
// boolean, …) from fields referencing other instances (section 2.1).
const (
	TInt FieldType = iota
	TBool
	TString
	TRef
)

// String returns the mdl spelling of the type.
func (t FieldType) String() string {
	switch t {
	case TInt:
		return "integer"
	case TBool:
		return "boolean"
	case TString:
		return "string"
	case TRef:
		return "reference"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// FieldID identifies a field uniquely within a Schema. Fields inherited
// through a diamond keep a single ID, so access vectors of diamond
// hierarchies join correctly.
type FieldID int

// Field is an instance variable, owned by the class that declares it and
// visible in every subclass.
type Field struct {
	ID     FieldID
	Name   string
	Type   FieldType
	Domain string // referenced class name when Type == TRef
	Owner  *Class // declaring class
}

// QualifiedName returns "owner.name", unique within a schema.
func (f *Field) QualifiedName() string { return f.Owner.Name + "." + f.Name }

// Method is a method body defined (or redefined) in a particular class.
// A subclass that inherits a method shares the *Method value of the
// definer — the identity (Definer, Name) is what the paper writes (C',M').
type Method struct {
	Name      string
	Params    []string
	Body      []mdl.Stmt
	Definer   *Class
	Redefined bool // declared with "is redefined as"

	// Program is set by the body compiler (CompileBody, invoked from
	// core.Compile after the access-vector extraction validated the
	// body): the slot-addressed program the engine's VM executes. The
	// AST in Body stays authoritative for analysis and printing only.
	Program *Program
}

// QualifiedName returns "(definer,name)" in the paper's notation.
func (m *Method) QualifiedName() string { return "(" + m.Definer.Name + "," + m.Name + ")" }

// MethodID is a dense schema-wide identifier for a method *name*:
// every class binding a name shares the ID, so per-class lookups
// (resolution, access-mode index) are single array loads at run time.
// IDs are assigned at build time in deterministic declaration order.
type MethodID uint32

// Class is a class of the schema with its computed inheritance context.
type Class struct {
	// ID is the dense schema-wide class identifier (its declaration
	// index). The engine keys extents, lock resources and per-class
	// run-time tables by it, so the hot path never hashes a name.
	ID   uint32
	Name string

	Parents []*Class

	// Declared members, in declaration order.
	OwnFields  []*Field
	OwnMethods []*Method

	// Computed by Build.
	Lin        []*Class           // C3 linearization; Lin[0] == the class itself
	Fields     []*Field           // FIELDS(C): root-most first, then locals
	Methods    map[string]*Method // METHODS(C): name → resolved definition
	MethodList []string           // names of Methods, sorted
	Subclasses []*Class           // direct subclasses, declaration order

	ownByName   map[string]*Method
	slotIdx     []int32     // FieldID → storage slot, dense; -1 where absent
	slotTypes   []FieldType // storage slot → field type, dense
	methodsByID []*Method   // METHODS(C) indexed by MethodID; nil where absent
	domain      []*Class    // cached Domain(), computed at build time
}

// Ancestors returns ANCESTORS(C) of definition 1: every class C inherits
// from, directly or transitively, in linearization order (nearest first).
func (c *Class) Ancestors() []*Class { return c.Lin[1:] }

// HasAncestor reports whether a is an ancestor of c (strictly above it).
func (c *Class) HasAncestor(a *Class) bool {
	for _, x := range c.Lin[1:] {
		if x == a {
			return true
		}
	}
	return false
}

// Resolve returns the method bound to name for a proper instance of c —
// the late-binding table entry — or nil if METHODS(C) has no such name.
func (c *Class) Resolve(name string) *Method { return c.Methods[name] }

// ResolveID is the dense-ID form of Resolve: a single array load, no
// string hashing. It returns nil when METHODS(C) has no such name.
func (c *Class) ResolveID(id MethodID) *Method {
	if int(id) >= len(c.methodsByID) {
		return nil
	}
	return c.methodsByID[id]
}

// FieldByName returns the visible field with the given name, or nil.
func (c *Class) FieldByName(name string) *Field {
	for _, f := range c.Fields {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Slot returns the storage slot of field id in instances of c, or -1 if
// the field is not part of FIELDS(C). The table is a dense array
// indexed by the schema-wide FieldID — one bounds check and one load,
// no hashing — because the compiled method programs resolve every field
// access through it at run time.
func (c *Class) Slot(id FieldID) int {
	if int(id) >= len(c.slotIdx) {
		return -1
	}
	return int(c.slotIdx[id])
}

// NumSlots returns the number of storage slots of an instance of c.
func (c *Class) NumSlots() int { return len(c.Fields) }

// SlotType returns the type of storage slot i of an instance of c: one
// load from a table built with the class, so the store reads a cell's
// kind from here instead of keeping it in every cell.
func (c *Class) SlotType(i int) FieldType { return c.slotTypes[i] }

// Domain returns the set of classes rooted at c — c itself plus every
// transitive subclass — in deterministic (declaration) order. This is the
// paper's "domain C" (section 5.2 accesses iii and iv). The slice is
// computed once at build time and shared: callers must not mutate it.
func (c *Class) Domain() []*Class {
	if c.domain != nil {
		return c.domain
	}
	return computeDomain(c)
}

func computeDomain(c *Class) []*Class {
	seen := map[*Class]bool{c: true}
	out := []*Class{c}
	var walk func(*Class)
	walk = func(x *Class) {
		for _, sub := range x.Subclasses {
			if !seen[sub] {
				seen[sub] = true
				out = append(out, sub)
				walk(sub)
			}
		}
	}
	walk(c)
	sort.SliceStable(out[1:], func(i, j int) bool {
		return out[i+1].ID < out[j+1].ID
	})
	return out
}

// Schema is a validated set of classes.
type Schema struct {
	Classes map[string]*Class
	Order   []*Class // declaration order; Order[c.ID] == c
	Fields  []*Field // indexed by FieldID

	// Method-name interning (assigned at build time).
	MethodNames []string // indexed by MethodID
	methodIDs   map[string]MethodID
}

// Class returns the class with the given name, or nil.
func (s *Schema) Class(name string) *Class { return s.Classes[name] }

// ClassByID returns the class with the given dense ID, or nil.
func (s *Schema) ClassByID(id uint32) *Class {
	if int(id) >= len(s.Order) {
		return nil
	}
	return s.Order[id]
}

// NumClasses returns the number of classes in the schema.
func (s *Schema) NumClasses() int { return len(s.Order) }

// MethodID returns the interned ID of a method name, if any class of
// the schema binds it.
func (s *Schema) MethodID(name string) (MethodID, bool) {
	id, ok := s.methodIDs[name]
	return id, ok
}

// MethodName returns the method name of an interned ID.
func (s *Schema) MethodName(id MethodID) string {
	if int(id) >= len(s.MethodNames) {
		return fmt.Sprintf("method#%d", id)
	}
	return s.MethodNames[id]
}

// NumMethodNames returns the number of distinct method names in the
// schema — the length of every dense per-class method-indexed table.
func (s *Schema) NumMethodNames() int { return len(s.MethodNames) }

// Field returns the field with the given ID.
func (s *Schema) Field(id FieldID) *Field { return s.Fields[id] }

// NumFields returns the number of distinct fields in the schema.
func (s *Schema) NumFields() int { return len(s.Fields) }

// Roots returns the classes without parents, in declaration order.
func (s *Schema) Roots() []*Class {
	var out []*Class
	for _, c := range s.Order {
		if len(c.Parents) == 0 {
			out = append(out, c)
		}
	}
	return out
}
