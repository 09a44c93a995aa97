package schema

// This file is the inlining half of the hot-loop pipeline: splicing the
// program of a statically-resolvable nested send — a late-bound
// self-send (the receiver class is fixed once the dispatch table is
// per-class) or a prefixed super-send (bound at compile time) — into
// its caller's frame, so the send retires with no lock-manager visit,
// no arity/depth bookkeeping and no frame push.
//
// The license to do this is the paper's definition 10: a method's
// transitive access vector already carries the effects of every nested
// self-send, so the locks acquired for the *top-level* send cover the
// callee's accesses too, and a nested-send lock request adds nothing.
// Protocols that exploit this (the fine mode tables) compile empty
// nested-send lock plans — which is exactly the engine-side capability
// gate: the runtime only builds inlined dispatch tables for protocols
// that declare concurrentWriters, whose nested self-sends are free,
// and the caller passes an `allow` predicate that re-checks definition
// 10 against the caller's TAV (every field the callee touches must be
// covered at the mode the callee needs).
//
// The splice replaces `OpSendSelf m argc` with:
//
//	OpNestedMark                      // transcript parity: still counts
//	OpStoreSlot base+argc-1 … base+0  // pop args into the callee's slots
//	OpZeroSlots base+params, locals   // re-arm locals on every execution
//	<callee code>                     // slots shifted, tables re-interned,
//	                                  // returns become jumps to the join
//
// The callee's operand stack begins exactly where the caller's argument
// pushes ended, so an OpReturn's value is already where the caller
// expects the send's result — returns rewrite to plain jumps (OpReturnNil
// pushes the zero value first). Field hooks, counters, undo logging and
// error positions all ride along unchanged inside the callee's code.
//
// What is deliberately NOT preserved: the VM's step budget charges the
// spliced instructions instead of the send dispatch (a budget-exhausting
// program may fail at a different instruction), and MaxDepth no longer
// sees inlined frames (the compile-time depth cap bounds them instead).
// Recursive sends are never inlined, so the depth guard still protects
// everything it used to.

// Inlining budget: a cap on the spliced program size and on the static
// splice nesting depth. Both exist to bound compile output, not for
// correctness — recursion is excluded by the call-chain check.
const (
	maxInlineCode  = 512
	maxInlineDepth = 4
)

// InlineSends returns p with every inlinable nested send spliced in, or
// p itself when no site qualifies. resolve maps a MethodID to the base
// program the receiver class binds it to (late-bound dispatch made
// static by the per-class table); allow is the definition-10 gate. p is
// never modified.
func InlineSends(p *Program, resolve func(MethodID) *Program, allow func(*Program) bool) *Program {
	il := &inliner{
		resolve: resolve,
		allow:   allow,
		out: &Program{
			Method:       p.Method,
			NumParams:    p.NumParams,
			NumSlots:     p.NumSlots,
			MaxStack:     p.MaxStack,
			StoresFields: p.StoresFields,
		},
	}
	il.walk(p, 0, true, []*Program{p}, p.MaxStack)
	if !il.inlined {
		return p
	}
	if il.needStack > il.out.MaxStack {
		il.out.MaxStack = il.needStack
	}
	return il.out
}

type inliner struct {
	resolve   func(MethodID) *Program
	allow     func(*Program) bool
	out       *Program
	inlined   bool
	needStack int // conservative operand-stack bound across splices
}

// Table re-interning: the output program owns fresh tables, fed from
// every walked program's references in first-use order.

func (il *inliner) intIdx(v int64) int32 {
	for i, x := range il.out.Ints {
		if x == v {
			return int32(i)
		}
	}
	il.out.Ints = append(il.out.Ints, v)
	return int32(len(il.out.Ints) - 1)
}

func (il *inliner) strIdx(s string) int32 {
	for i, x := range il.out.Strs {
		if x == s {
			return int32(i)
		}
	}
	il.out.Strs = append(il.out.Strs, s)
	return int32(len(il.out.Strs) - 1)
}

func (il *inliner) fieldIdx(f *Field) int32 {
	for i, x := range il.out.Fields {
		if x == f {
			return int32(i)
		}
	}
	il.out.Fields = append(il.out.Fields, f)
	return int32(len(il.out.Fields) - 1)
}

func (il *inliner) classIdx(c *Class) int32 {
	for i, x := range il.out.Classes {
		if x == c {
			return int32(i)
		}
	}
	il.out.Classes = append(il.out.Classes, c)
	return int32(len(il.out.Classes) - 1)
}

func (il *inliner) builtinIdx(b BuiltinRef) int32 {
	for i, x := range il.out.Builtins {
		if x == b {
			return int32(i)
		}
	}
	il.out.Builtins = append(il.out.Builtins, b)
	return int32(len(il.out.Builtins) - 1)
}

func (il *inliner) superIdx(sc SuperCall) int32 {
	for i, x := range il.out.Supers {
		if x == sc {
			return int32(i)
		}
	}
	il.out.Supers = append(il.out.Supers, sc)
	return int32(len(il.out.Supers) - 1)
}

func inChain(chain []*Program, p *Program) bool {
	for _, c := range chain {
		if c == p {
			return true
		}
	}
	return false
}

// inlinable decides whether one send site may be spliced: callee known,
// exact arity (an arity mismatch must keep failing at run time), within
// budget, acyclic, and covered by the caller's TAV.
func (il *inliner) inlinable(callee *Program, argc int, chain []*Program) bool {
	return callee != nil &&
		callee.NumParams == argc &&
		len(chain) < maxInlineDepth &&
		len(il.out.Code)+len(callee.Code)+argc+2 <= maxInlineCode &&
		!inChain(chain, callee) &&
		il.allow(callee)
}

// walk appends prog's code to the output, shifting slot references by
// slotBase. For spliced callees (top == false) returns are rewritten to
// jumps to the join point at the end of the region. cumStack is the
// operand-stack bound of the enclosing chain including prog.
func (il *inliner) walk(prog *Program, slotBase int32, top bool, chain []*Program, cumStack int) {
	n := len(prog.Code)
	newIdx := make([]int, n+1)
	type fix struct{ at, target int }
	var fixes []fix
	var retJumps []int

	emit := func(ins Instr, pos int) {
		il.out.Code = append(il.out.Code, ins)
		il.out.pos = append(il.out.pos, prog.pos[pos])
	}

	for pc := 0; pc < n; pc++ {
		newIdx[pc] = len(il.out.Code)
		ins := prog.Code[pc]
		switch ins.Op {
		case OpLoadSlot, OpStoreSlot:
			ins.A += slotBase
			emit(ins, pc)

		case OpConstInt:
			ins.A = il.intIdx(prog.Ints[ins.A])
			emit(ins, pc)
		case OpConstStr:
			ins.A = il.strIdx(prog.Strs[ins.A])
			emit(ins, pc)
		case OpLoadField, OpStoreField:
			ins.A = il.fieldIdx(prog.Fields[ins.A])
			emit(ins, pc)
		case OpCallBuiltin:
			ins.A = il.builtinIdx(prog.Builtins[ins.A])
			emit(ins, pc)
		case OpNew:
			ins.A = il.classIdx(prog.Classes[ins.A])
			emit(ins, pc)
		case OpSendRemoteU:
			ins.A = il.strIdx(prog.Strs[ins.A])
			emit(ins, pc)

		case OpJump, OpJumpIfFalse, OpScAnd, OpScOr:
			fixes = append(fixes, fix{at: len(il.out.Code), target: int(ins.A)})
			emit(ins, pc)

		case OpSendSelf:
			callee := il.resolve(MethodID(ins.A))
			if !il.inlinable(callee, int(ins.B), chain) {
				emit(ins, pc)
				continue
			}
			il.splice(callee, int(ins.B), pc, prog, chain, cumStack)

		case OpSendSuper:
			sc := prog.Supers[ins.A]
			callee := sc.Method.Program
			if !il.inlinable(callee, int(ins.B), chain) {
				ins.A = il.superIdx(sc)
				emit(ins, pc)
				continue
			}
			il.splice(callee, int(ins.B), pc, prog, chain, cumStack)

		case OpReturn:
			if top {
				emit(ins, pc)
				continue
			}
			if pc != n-1 { // value is already on the stack: jump to the join
				retJumps = append(retJumps, len(il.out.Code))
				emit(Instr{Op: OpJump}, pc)
			}

		case OpReturnNil:
			if top {
				emit(ins, pc)
				continue
			}
			emit(Instr{Op: OpConstI32}, pc) // Value{} == IntV(0)
			if pc != n-1 {
				retJumps = append(retJumps, len(il.out.Code))
				emit(Instr{Op: OpJump}, pc)
			}

		default:
			emit(ins, pc)
		}
	}
	newIdx[n] = len(il.out.Code)

	for _, f := range fixes {
		il.out.Code[f.at].A = int32(newIdx[f.target])
	}
	for _, at := range retJumps {
		il.out.Code[at].A = int32(newIdx[n])
	}
}

// splice inlines one send site (see the file comment for the shape).
func (il *inliner) splice(callee *Program, argc, pc int, prog *Program, chain []*Program, cumStack int) {
	il.inlined = true
	emit := func(ins Instr) {
		il.out.Code = append(il.out.Code, ins)
		il.out.pos = append(il.out.pos, prog.pos[pc])
	}
	emit(Instr{Op: OpNestedMark})
	newBase := int32(il.out.NumSlots)
	il.out.NumSlots += callee.NumSlots
	for a := argc - 1; a >= 0; a-- { // args were pushed left to right
		emit(Instr{Op: OpStoreSlot, A: newBase + int32(a)})
	}
	if locals := callee.NumSlots - callee.NumParams; locals > 0 {
		emit(Instr{Op: OpZeroSlots, A: newBase + int32(callee.NumParams), B: uint16(locals)})
	}
	// +1: an OpReturnNil rewrite pushes the zero value at a point where
	// the callee's own stack simulation reserved nothing.
	if cumStack+callee.MaxStack+1 > il.needStack {
		il.needStack = cumStack + callee.MaxStack + 1
	}
	il.walk(callee, newBase, false, append(chain, callee), cumStack+callee.MaxStack)
	if il.out.StoresFields || callee.StoresFields {
		il.out.StoresFields = true
	}
}
