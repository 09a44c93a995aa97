package core

import (
	"fmt"

	"repro/internal/schema"
)

// CompiledClass holds everything the run-time locking protocol needs
// about one class: the late-binding resolution graph, the transitive
// access vector of every visible method, and the commutativity table
// translating vectors into access modes (sections 4–5).
type CompiledClass struct {
	Class *schema.Class
	Graph *Graph
	TAV   map[string]Vector // by method name, for METHODS(C)
	Table *Table
}

// WriterByTAV reports whether a method writes any field when invoked on
// a proper instance of this class — the classification the read/write
// baselines collapse methods to.
func (cc *CompiledClass) WriterByTAV(method string) bool {
	return cc.TAV[method].HasWrite()
}

// Compiled is a fully analysed schema: per-definition extraction results
// plus per-class graphs, TAVs and commutativity tables.
type Compiled struct {
	Schema  *schema.Schema
	Infos   map[*schema.Method]*MethodInfo
	Classes map[string]*CompiledClass
}

// Option configures Compile.
type Option func(*options)

type options struct {
	overrides *Overrides
}

// WithOverrides supplies ad hoc commutativity declarations (section 3).
func WithOverrides(ov *Overrides) Option {
	return func(o *options) { o.overrides = ov }
}

// Compile runs the paper's whole compile-time pipeline on a schema:
//
//  1. parse-time extraction of DAV/DSC/PSC per method definition
//     (definitions 6–8 — "note how simple it is, for a compiler");
//  2. per class, the late-binding resolution graph (definition 9);
//  3. per class, transitive access vectors via strong components
//     (definition 10, Tarjan [24]);
//  4. per class, the commutativity relation on access modes (§5.1).
//
// The result contains no run-time machinery: it is the static artefact a
// database kernel loads, after which every concurrency-control decision
// is a single table lookup.
func Compile(s *schema.Schema, opts ...Option) (*Compiled, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}

	c := &Compiled{
		Schema:  s,
		Infos:   make(map[*schema.Method]*MethodInfo),
		Classes: make(map[string]*CompiledClass),
	}

	// 1. Extraction, once per definition (inherited methods share it).
	for _, cls := range s.Order {
		for _, m := range cls.OwnMethods {
			info, err := Extract(s, m)
			if err != nil {
				return nil, err
			}
			c.Infos[m] = info
		}
	}

	// 1.5. Lower every validated body to its slot-addressed program —
	// the execution-side twin of extraction: parameters/locals become
	// slot indexes, fields become FieldIDs, callees become MethodIDs and
	// classes become interned IDs, so nothing is resolved by name inside
	// a transaction. Extraction ran first, so name errors surface with
	// the paper's diagnostics before this pass ever sees them.
	for _, cls := range s.Order {
		for _, m := range cls.OwnMethods {
			prog, err := schema.CompileBody(s, m)
			if err != nil {
				return nil, err
			}
			prog.Fused = schema.Fuse(prog)
			m.Program = prog
		}
	}

	// 2–4. Per-class analysis.
	for _, cls := range s.Order {
		g, err := BuildGraph(cls, c.Infos)
		if err != nil {
			return nil, err
		}
		tavs := TAVs(g, c.Infos)
		byName := make(map[string]Vector, len(cls.MethodList))
		for _, name := range cls.MethodList {
			vi := g.VertexOf(cls, name)
			if vi < 0 {
				return nil, fmt.Errorf("core: class %s: method %s missing from graph", cls.Name, name)
			}
			byName[name] = tavs[vi]
		}
		tbl := NewTable(cls, byName, o.overrides)
		if err := checkCoWrites(tbl, byName); err != nil {
			return nil, err
		}
		tbl.BuildIDIndex(s)
		c.Classes[cls.Name] = &CompiledClass{
			Class: cls,
			Graph: g,
			TAV:   byName,
			Table: tbl,
		}
	}
	return c, nil
}

// checkCoWrites rejects a table under which two commuting methods both
// write a non-integer field. Commuting writers of one field run as
// concurrent uncommitted writers, and only an integer has a delta form
// for their undo and redo; for any other type the second writer's
// before-image would be the first writer's uncommitted value. Derived
// commutativity never admits two writers of a field, so only an ad hoc
// declaration can fail this.
func checkCoWrites(t *Table, tav map[string]Vector) error {
	for i, mi := range t.Methods {
		for j := i; j < len(t.Methods); j++ {
			if !t.CommutesIdx(i, j) {
				continue
			}
			mj := t.Methods[j]
			for _, f := range t.Class.Fields {
				if f.Type != schema.TInt && tav[mi].Get(f.ID) == Write && tav[mj].Get(f.ID) == Write {
					return fmt.Errorf("core: class %s: %s and %s are declared commuting, but both write %s field %s, which has no delta form",
						t.Class.Name, mi, mj, f.Type, f.Name)
				}
			}
		}
	}
	return nil
}

// CompileSource is a convenience: parse, build and compile mdl source.
func CompileSource(src string, opts ...Option) (*Compiled, error) {
	s, err := schema.FromSource(src)
	if err != nil {
		return nil, err
	}
	return Compile(s, opts...)
}

// Class returns the compiled class by name, or nil.
func (c *Compiled) Class(name string) *CompiledClass { return c.Classes[name] }

// DAV returns the direct access vector of the definition of method name
// as visible in class cls (definition 6, including the inheritance
// clause — the sparse representation makes Null-padding implicit).
func (c *Compiled) DAV(cls *schema.Class, name string) (Vector, bool) {
	m := cls.Resolve(name)
	if m == nil {
		return Vector{}, false
	}
	info := c.Infos[m]
	if info == nil {
		return Vector{}, false
	}
	return info.DAV, true
}

// TAV returns the transitive access vector of method name on proper
// instances of class cls.
func (c *Compiled) TAV(cls *schema.Class, name string) (Vector, bool) {
	cc := c.Classes[cls.Name]
	if cc == nil {
		return Vector{}, false
	}
	v, ok := cc.TAV[name]
	return v, ok
}
