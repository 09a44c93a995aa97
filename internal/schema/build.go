package schema

import (
	"fmt"
	"sort"

	"repro/internal/mdl"
)

// FromSource parses mdl source text and builds a validated schema.
func FromSource(src string) (*Schema, error) {
	f, err := mdl.ParseFile(src)
	if err != nil {
		return nil, err
	}
	return FromFile(f)
}

// FromFile builds a validated schema from a parsed mdl file.
//
// Validation enforces:
//   - unique class names; parents must exist (forward references allowed);
//   - acyclic inheritance with a consistent C3 linearization;
//   - field names unique within a class and not conflicting with any
//     inherited field (a diamond-shared field is one field, not a conflict);
//   - field types are integer/boolean/string or a declared class;
//   - method names unique within a class; an override must keep the arity
//     of the method it overrides.
//
// Method *bodies* are validated later by the access-vector compiler
// (internal/core), which has the FIELDS/METHODS context to resolve names.
func FromFile(f *mdl.File) (*Schema, error) {
	s := &Schema{Classes: make(map[string]*Class)}

	// Pass 1: create classes.
	for i, cd := range f.Classes {
		if _, dup := s.Classes[cd.Name]; dup {
			return nil, fmt.Errorf("schema: duplicate class %q", cd.Name)
		}
		c := &Class{ID: uint32(i), Name: cd.Name, ownByName: make(map[string]*Method)}
		s.Classes[cd.Name] = c
		s.Order = append(s.Order, c)
	}

	// Pass 2: link parents, declare members.
	for i, cd := range f.Classes {
		c := s.Order[i]
		for _, pname := range cd.Parents {
			p := s.Classes[pname]
			if p == nil {
				return nil, fmt.Errorf("schema: class %s inherits unknown class %q", c.Name, pname)
			}
			if p == c {
				return nil, fmt.Errorf("schema: class %s inherits itself", c.Name)
			}
			c.Parents = append(c.Parents, p)
		}
		for _, fd := range cd.Fields {
			ft, dom, err := resolveType(s, fd.Type)
			if err != nil {
				return nil, fmt.Errorf("schema: class %s, field %s: %w", c.Name, fd.Name, err)
			}
			fld := &Field{Name: fd.Name, Type: ft, Domain: dom, Owner: c}
			c.OwnFields = append(c.OwnFields, fld)
		}
		for _, md := range cd.Methods {
			if _, dup := c.ownByName[md.Name]; dup {
				return nil, fmt.Errorf("schema: class %s declares method %q twice", c.Name, md.Name)
			}
			m := &Method{Name: md.Name, Params: md.Params, Body: md.Body, Definer: c, Redefined: md.Redefined}
			c.OwnMethods = append(c.OwnMethods, m)
			c.ownByName[md.Name] = m
		}
	}

	// Pass 3: cycles, linearization.
	state := make(map[*Class]int)
	for _, c := range s.Order {
		if err := detectCycle(c, state); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	for _, c := range s.Order {
		if _, err := linearize(c); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}

	// Pass 4: FIELDS(C) — root-most ancestors first, assigning global IDs
	// in declaration order of the owning classes so that the paper's
	// (f1 … f6) ordering falls out naturally for c2.
	for _, c := range s.Order {
		for _, fld := range c.OwnFields {
			fld.ID = FieldID(len(s.Fields))
			s.Fields = append(s.Fields, fld)
		}
	}
	for _, c := range s.Order {
		c.slotIdx = make([]int32, len(s.Fields))
		for i := range c.slotIdx {
			c.slotIdx[i] = -1
		}
		seen := make(map[string]*Field)
		for _, anc := range c.Lin {
			for _, fld := range anc.OwnFields {
				if prev, ok := seen[fld.Name]; ok {
					if prev == fld {
						continue // diamond: same field seen via two paths
					}
					return nil, fmt.Errorf(
						"schema: class %s inherits conflicting fields named %q (from %s and %s)",
						c.Name, fld.Name, prev.Owner.Name, fld.Owner.Name)
				}
				seen[fld.Name] = fld
				c.Fields = append(c.Fields, fld)
			}
		}
		// FIELDS(C) in global declaration order (ancestors' fields first in
		// single-inheritance chains), matching the paper's (f1 … f6) layout.
		sort.Slice(c.Fields, func(i, j int) bool { return c.Fields[i].ID < c.Fields[j].ID })
		c.slotTypes = make([]FieldType, len(c.Fields))
		for slot, fld := range c.Fields {
			c.slotIdx[fld.ID] = int32(slot)
			c.slotTypes[slot] = fld.Type
		}
	}

	// Pass 5: METHODS(C) — nearest definition along the linearization —
	// and override arity checks.
	for _, c := range s.Order {
		c.Methods = make(map[string]*Method)
		for i := len(c.Lin) - 1; i >= 0; i-- { // root-most first, nearer overrides
			for _, m := range c.Lin[i].OwnMethods {
				if prev, ok := c.Methods[m.Name]; ok && prev != m {
					if len(prev.Params) != len(m.Params) {
						return nil, fmt.Errorf(
							"schema: class %s overrides %s.%s with different arity (%d vs %d)",
							m.Definer.Name, prev.Definer.Name, m.Name, len(m.Params), len(prev.Params))
					}
				}
				c.Methods[m.Name] = m
			}
		}
		c.MethodList = make([]string, 0, len(c.Methods))
		for name := range c.Methods {
			c.MethodList = append(c.MethodList, name)
		}
		sort.Strings(c.MethodList)
	}

	// Pass 5.5: intern method names into dense schema-wide IDs
	// (deterministic: declaration order of classes, sorted method lists
	// within a class) and build the per-class dense resolution tables.
	s.methodIDs = make(map[string]MethodID)
	for _, c := range s.Order {
		for _, name := range c.MethodList {
			if _, ok := s.methodIDs[name]; !ok {
				s.methodIDs[name] = MethodID(len(s.MethodNames))
				s.MethodNames = append(s.MethodNames, name)
			}
		}
	}
	for _, c := range s.Order {
		c.methodsByID = make([]*Method, len(s.MethodNames))
		for name, m := range c.Methods {
			c.methodsByID[s.methodIDs[name]] = m
		}
	}

	// Pass 6: direct subclasses.
	for _, c := range s.Order {
		for _, p := range c.Parents {
			p.Subclasses = append(p.Subclasses, c)
		}
	}

	// Pass 6.5: cache every domain closure (needs Subclasses complete).
	for _, c := range s.Order {
		c.domain = computeDomain(c)
	}

	// Pass 7: reference fields must point at declared classes (checked in
	// resolveType) — and methods marked "redefined" should actually
	// override something; warn-level issue promoted to error for hygiene.
	for _, c := range s.Order {
		for _, m := range c.OwnMethods {
			if m.Redefined && !overridesSomething(c, m) {
				return nil, fmt.Errorf(
					"schema: %s.%s is declared 'redefined as' but overrides nothing", c.Name, m.Name)
			}
		}
	}
	return s, nil
}

func overridesSomething(c *Class, m *Method) bool {
	for _, a := range c.Ancestors() {
		if a.Methods[m.Name] != nil {
			return true
		}
	}
	return false
}

func resolveType(s *Schema, name string) (FieldType, string, error) {
	switch name {
	case "integer", "int":
		return TInt, "", nil
	case "boolean", "bool":
		return TBool, "", nil
	case "string":
		return TString, "", nil
	}
	if _, ok := s.Classes[name]; ok {
		return TRef, name, nil
	}
	return 0, "", fmt.Errorf("unknown type %q (not a base type or declared class)", name)
}
