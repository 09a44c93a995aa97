package schema

// This file lowers method bodies from the mdl AST into flat,
// slot-addressed programs at schema-build time. The paper's thesis is
// that all concurrency-control intelligence moves to compile time
// (sections 4–5); this pass applies the same philosophy to execution
// itself: every parameter, local, field, callee method, class and
// builtin a body mentions is resolved once here — to a dense slot
// index, a global FieldID, an interned MethodID, a *Class or a builtin
// ID — so the engine's VM executes integer-addressed instructions and
// never touches a name or an AST node. The AST remains the single
// source of truth for the access-vector extraction (internal/core),
// which is untouched.

import (
	"fmt"
	"math"

	"repro/internal/mdl"
)

// Op is one opcode of the compiled method programs.
type Op uint8

// The op set. A is the wide operand (slot, table index, jump target or
// inline value), B the narrow one (argument count).
const (
	// Constants and stack shuffling.
	OpConstI32  Op = iota // push integer A (int literals fitting int32)
	OpConstInt            // push integer Ints[A]
	OpConstBool           // push boolean (A != 0)
	OpConstStr            // push string Strs[A]
	OpSelf                // push a reference to the receiver
	OpPop                 // drop the top of stack (expression statements)

	// Slots: parameters and locals of the current activation.
	OpLoadSlot  // push slot A
	OpStoreSlot // slot A := pop

	// Fields of the receiver (CC-hooked, undo-logged on store).
	OpLoadField  // push field Fields[A]
	OpStoreField // field Fields[A] := pop

	// Control flow. Jump targets are absolute instruction indexes.
	OpJump        // pc := A
	OpJumpIfFalse // pop boolean; if false pc := A (errors on non-boolean)
	OpScAnd       // pop boolean; if false push false and pc := A
	OpScOr        // pop boolean; if true push true and pc := A
	OpBool        // assert top of stack is boolean (tail of and/or)

	// Operators.
	OpNot
	OpNeg
	OpEq
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod

	// Calls. Argument values are the top B stack entries.
	OpCallBuiltin // push Builtins[A](args...)
	OpNew         // push a reference to a fresh instance of Classes[A]
	OpSendSelf    // late-bound self-send of method A (a MethodID)
	OpSendSuper   // prefixed self-send of Supers[A]
	OpSendRemote  // send method A (a MethodID) to the popped reference
	OpSendRemoteU // send of a name the schema never binds (Strs[A]): the
	// receiver is still evaluated and checked, then the send fails like
	// the late-bound path would

	// Returns.
	OpReturn    // return pop
	OpReturnNil // return the zero value

	// Superinstructions: peephole fusions of the dominant sequences,
	// produced by Fuse — CompileBody never emits them. The fused binary
	// operator and the operand addressing kind are packed into B (see
	// FuseB); the operand payload rides in C.
	OpIncField    // field Fields[A] := Fields[A] ⊙ operand  (the deposit shape)
	OpIncSlot     // slot A := slot A ⊙ operand
	OpLoadFieldOp // push Fields[A] ⊙ operand                (compare/arith guards)
	OpLoadSlotOp  // push slot A ⊙ operand
	OpReturnField // return Fields[A]                        (getter tail)
	OpReturnSlot  // return slot A
)

// Instr is one compact 12-byte instruction.
type Instr struct {
	Op Op
	B  uint16 // argument count for call-family ops; packed operator/kind for fused ops
	A  int32  // wide operand
	C  int32  // fused-operand payload (inline constant, slot, or field index)
}

// Fused-operand addressing kinds, packed into bits 8–9 of B on the
// fused ops; the low 8 bits of B carry the folded binary operator.
const (
	FuseConst = iota // C is the operand itself (an int32 integer literal)
	FuseSlot         // C is a frame slot index
	FuseField        // C is a Fields table index
	FuseStr          // C is a Strs table index (string literal operand)
)

// FuseB packs a folded binary operator and an operand kind into the B
// operand of a fused instruction.
func FuseB(sub Op, kind int) uint16 { return uint16(sub) | uint16(kind)<<8 }

// FusedOp unpacks the folded binary operator of a fused instruction.
func (i Instr) FusedOp() Op { return Op(i.B & 0xff) }

// FusedKind unpacks the operand addressing kind of a fused instruction.
func (i Instr) FusedKind() int { return int(i.B >> 8) }

// BuiltinID identifies a builtin function, resolved at build time. The
// engine owns the implementations; BuiltinUnknown preserves the
// tree-walker's behaviour of failing at run time when a body applies a
// name no builtin binds.
type BuiltinID uint8

// The builtins of the language: the paper's opaque expr/cond plus the
// concrete helpers the examples use.
const (
	BuiltinUnknown BuiltinID = iota
	BuiltinExpr
	BuiltinCond
	BuiltinHash
	BuiltinAbs
	BuiltinMin
	BuiltinMax
	BuiltinLen
	BuiltinConcat
)

// builtinIDs maps source spellings to IDs.
var builtinIDs = map[string]BuiltinID{
	"expr":   BuiltinExpr,
	"cond":   BuiltinCond,
	"hash":   BuiltinHash,
	"abs":    BuiltinAbs,
	"min":    BuiltinMin,
	"max":    BuiltinMax,
	"len":    BuiltinLen,
	"concat": BuiltinConcat,
}

// BuiltinRef is one resolved builtin application site: the ID plus the
// source spelling (kept for diagnostics and unknown-builtin errors).
type BuiltinRef struct {
	ID   BuiltinID
	Name string
}

// SuperCall is one compiled prefixed self-send ("send C'.M' to self"):
// the statically resolved target method — METHODS(C') binds it at build
// time, no late binding involved — and the interned method ID the
// concurrency-control hooks key on.
type SuperCall struct {
	Method *Method
	MID    MethodID
}

// Program is one compiled method body: flat code plus the resolved
// tables its instructions index. Instances of every class that inherits
// the method share the program — field instructions carry global
// FieldIDs, which each receiver class maps to its own storage slot
// through its dense slot table (Class.Slot, one array load). A nested
// send in the code always runs its callee's program in a frame of its
// own; no pass splices one program into another.
type Program struct {
	Method *Method // the definition this lowers

	Code     []Instr
	Ints     []int64
	Strs     []string
	Fields   []*Field
	Classes  []*Class
	Supers   []SuperCall
	Builtins []BuiltinRef

	NumParams int // parameters occupy slots [0, NumParams)
	NumSlots  int // parameters + locals
	MaxStack  int // operand stack high-water mark

	// StoresFields reports whether the body contains a direct field
	// assignment. The engine uses it, with the method's escrow-slot
	// mask, to decide which activations must hold the receiver's
	// execution latch: where declared escrow commutativity grants two
	// writers of one slot simultaneously, a read-modify-write like
	// `balance := balance + n` is only atomic if the frame serializes
	// physically with the other writing frames on the instance.
	StoresFields bool

	// Fused is the superinstruction twin of this program — identical
	// semantics in fewer dispatches — built by Fuse at schema compile;
	// it is what the engine dispatches. It is nil on the twin itself.
	Fused *Program

	pos []mdl.Pos // per-instruction source positions, diagnostics only
}

// FrameSize is the number of value slots one activation of the program
// needs: its parameter/local slots plus its operand stack.
func (p *Program) FrameSize() int { return p.NumSlots + p.MaxStack }

// PosAt renders the source position of instruction pc, for error
// messages — the engine never touches the AST, only this string.
func (p *Program) PosAt(pc int) string {
	if pc < 0 || pc >= len(p.pos) {
		return "?"
	}
	return p.pos[pc].String()
}

// CompileBody lowers the body of one method definition. It assumes the
// schema is fully built (METHODS/FIELDS materialised, method names
// interned) and the body already validated by the access-vector
// extractor, so resolution failures here are internal errors — they are
// still reported, never panicked.
func CompileBody(s *Schema, m *Method) (*Program, error) {
	bc := &bodyCompiler{
		s:     s,
		m:     m,
		cls:   m.Definer,
		p:     &Program{Method: m, NumParams: len(m.Params)},
		slots: make(map[string]int, len(m.Params)+4),
	}
	for i, name := range m.Params {
		bc.slots[name] = i
	}
	bc.stmts(m.Body)
	if bc.err != nil {
		return nil, bc.err
	}
	bc.emit(OpReturnNil, 0, 0, mdl.Pos{})
	bc.p.NumSlots = len(bc.slots)
	bc.p.MaxStack = bc.max
	return bc.p, nil
}

// bodyCompiler holds the state of one CompileBody run.
type bodyCompiler struct {
	s     *Schema
	m     *Method
	cls   *Class // defining class: the resolution context, as in extraction
	p     *Program
	slots map[string]int // parameter/local name → slot

	cur, max int // operand stack depth simulation
	err      error
}

func (bc *bodyCompiler) fail(pos mdl.Pos, format string, args ...any) {
	if bc.err == nil {
		bc.err = fmt.Errorf("schema: %s.%s: %s: %s",
			bc.cls.Name, bc.m.Name, pos, fmt.Sprintf(format, args...))
	}
}

// emit appends one instruction and returns its index (for patching).
func (bc *bodyCompiler) emit(op Op, a int32, b uint16, pos mdl.Pos) int {
	bc.p.Code = append(bc.p.Code, Instr{Op: op, A: a, B: b})
	bc.p.pos = append(bc.p.pos, pos)
	return len(bc.p.Code) - 1
}

// patch points the jump at index i to the next emitted instruction.
func (bc *bodyCompiler) patch(i int) {
	bc.p.Code[i].A = int32(len(bc.p.Code))
}

func (bc *bodyCompiler) push(n int) {
	bc.cur += n
	if bc.cur > bc.max {
		bc.max = bc.cur
	}
}

func (bc *bodyCompiler) pop(n int) {
	bc.cur -= n
	if bc.cur < 0 && bc.err == nil {
		bc.err = fmt.Errorf("schema: %s.%s: internal: operand stack underflow",
			bc.cls.Name, bc.m.Name)
	}
}

// slotFor returns the slot of a local, creating it on first declaration
// (re-declaring a name reuses its slot, like the tree-walker's
// environment map did).
//
// Scoping is decided in program order, exactly as the access-vector
// extractor decides it (definitions 6–8 walk the body the same way):
// once a VarDecl introduces a name, every later occurrence in the walk
// is the local, even when the declaring branch is not taken at run
// time. The deleted tree-walker resolved names against the *run-time*
// environment instead, with two consequences this pass deliberately
// changes. First, a name declared in an untaken branch could silently
// fall through to a same-named field — a write the method's DAV never
// announced and the lock protocol therefore never covered; compile-time
// scoping closes that hole: execution touches exactly the fields the
// analysis says it touches. Second, reading a local whose VarDecl sits
// in an untaken branch was a run-time "unknown name" error; it now
// yields the slot's zero value (integer 0), the way locals behave in
// any slot-compiled language. The differential goldens cover every
// example program; neither edge occurs in them.
func (bc *bodyCompiler) slotFor(name string) int {
	if i, ok := bc.slots[name]; ok {
		return i
	}
	i := len(bc.slots)
	bc.slots[name] = i
	return i
}

// Table interning helpers: small linear scans at build time keep the
// run-time tables deduplicated and dense.

func (bc *bodyCompiler) fieldIdx(f *Field) int32 {
	for i, x := range bc.p.Fields {
		if x == f {
			return int32(i)
		}
	}
	bc.p.Fields = append(bc.p.Fields, f)
	return int32(len(bc.p.Fields) - 1)
}

func (bc *bodyCompiler) classIdx(c *Class) int32 {
	for i, x := range bc.p.Classes {
		if x == c {
			return int32(i)
		}
	}
	bc.p.Classes = append(bc.p.Classes, c)
	return int32(len(bc.p.Classes) - 1)
}

func (bc *bodyCompiler) strIdx(s string) int32 {
	for i, x := range bc.p.Strs {
		if x == s {
			return int32(i)
		}
	}
	bc.p.Strs = append(bc.p.Strs, s)
	return int32(len(bc.p.Strs) - 1)
}

func (bc *bodyCompiler) builtinIdx(name string) int32 {
	id := builtinIDs[name] // zero value = BuiltinUnknown, resolved at run time
	for i, x := range bc.p.Builtins {
		if x.ID == id && x.Name == name {
			return int32(i)
		}
	}
	bc.p.Builtins = append(bc.p.Builtins, BuiltinRef{ID: id, Name: name})
	return int32(len(bc.p.Builtins) - 1)
}

func (bc *bodyCompiler) superIdx(m *Method, mid MethodID) int32 {
	for i, x := range bc.p.Supers {
		if x.Method == m && x.MID == mid {
			return int32(i)
		}
	}
	bc.p.Supers = append(bc.p.Supers, SuperCall{Method: m, MID: mid})
	return int32(len(bc.p.Supers) - 1)
}

func (bc *bodyCompiler) stmts(ss []mdl.Stmt) {
	for _, s := range ss {
		if bc.err != nil {
			return
		}
		bc.stmt(s)
	}
}

func (bc *bodyCompiler) stmt(s mdl.Stmt) {
	switch s := s.(type) {
	case *mdl.Assign:
		bc.expr(s.Value)
		if slot, ok := bc.slots[s.Target]; ok {
			bc.emit(OpStoreSlot, int32(slot), 0, s.At)
			bc.pop(1)
			return
		}
		if f := bc.cls.FieldByName(s.Target); f != nil {
			bc.emit(OpStoreField, bc.fieldIdx(f), 0, s.At)
			bc.p.StoresFields = true
			bc.pop(1)
			return
		}
		bc.fail(s.At, "assignment to unknown name %q", s.Target)

	case *mdl.VarDecl:
		bc.expr(s.Value)
		bc.emit(OpStoreSlot, int32(bc.slotFor(s.Name)), 0, s.At)
		bc.pop(1)

	case *mdl.ExprStmt:
		bc.expr(s.X)
		bc.emit(OpPop, 0, 0, s.At)
		bc.pop(1)

	case *mdl.If:
		bc.expr(s.Cond)
		jf := bc.emit(OpJumpIfFalse, 0, 0, s.Cond.Pos())
		bc.pop(1)
		bc.stmts(s.Then)
		if len(s.Else) == 0 {
			bc.patch(jf)
			return
		}
		j := bc.emit(OpJump, 0, 0, s.At)
		bc.patch(jf)
		bc.stmts(s.Else)
		bc.patch(j)

	case *mdl.While:
		start := len(bc.p.Code)
		bc.expr(s.Cond)
		jf := bc.emit(OpJumpIfFalse, 0, 0, s.Cond.Pos())
		bc.pop(1)
		bc.stmts(s.Body)
		bc.emit(OpJump, int32(start), 0, s.At)
		bc.patch(jf)

	case *mdl.Return:
		if s.Value == nil {
			bc.emit(OpReturnNil, 0, 0, s.At)
			return
		}
		bc.expr(s.Value)
		bc.emit(OpReturn, 0, 0, s.At)
		bc.pop(1)

	default:
		bc.fail(s.Pos(), "unknown statement %T", s)
	}
}

func (bc *bodyCompiler) expr(e mdl.Expr) {
	if bc.err != nil || e == nil {
		return
	}
	switch e := e.(type) {
	case *mdl.IntLit:
		if e.Val >= math.MinInt32 && e.Val <= math.MaxInt32 {
			bc.emit(OpConstI32, int32(e.Val), 0, e.At)
		} else {
			bc.p.Ints = append(bc.p.Ints, e.Val)
			bc.emit(OpConstInt, int32(len(bc.p.Ints)-1), 0, e.At)
		}
		bc.push(1)

	case *mdl.BoolLit:
		a := int32(0)
		if e.Val {
			a = 1
		}
		bc.emit(OpConstBool, a, 0, e.At)
		bc.push(1)

	case *mdl.StrLit:
		bc.emit(OpConstStr, bc.strIdx(e.Val), 0, e.At)
		bc.push(1)

	case *mdl.SelfExpr:
		bc.emit(OpSelf, 0, 0, e.At)
		bc.push(1)

	case *mdl.Ident:
		if slot, ok := bc.slots[e.Name]; ok {
			bc.emit(OpLoadSlot, int32(slot), 0, e.At)
			bc.push(1)
			return
		}
		if f := bc.cls.FieldByName(e.Name); f != nil {
			bc.emit(OpLoadField, bc.fieldIdx(f), 0, e.At)
			bc.push(1)
			return
		}
		bc.fail(e.At, "unknown name %q (not a field, parameter or local)", e.Name)

	case *mdl.Binary:
		bc.binary(e)

	case *mdl.Unary:
		bc.expr(e.X)
		switch e.Op {
		case "not":
			bc.emit(OpNot, 0, 0, e.At)
		case "-":
			bc.emit(OpNeg, 0, 0, e.At)
		default:
			bc.fail(e.At, "unknown unary %q", e.Op)
		}

	case *mdl.Call:
		for _, a := range e.Args {
			bc.expr(a)
		}
		bc.emit(OpCallBuiltin, bc.builtinIdx(e.Func), uint16(len(e.Args)), e.At)
		bc.pop(len(e.Args))
		bc.push(1)

	case *mdl.New:
		cls := bc.s.Class(e.Class)
		if cls == nil {
			bc.fail(e.At, "new of unknown class %q", e.Class)
			return
		}
		for _, a := range e.Args {
			bc.expr(a)
		}
		bc.emit(OpNew, bc.classIdx(cls), uint16(len(e.Args)), e.At)
		bc.pop(len(e.Args))
		bc.push(1)

	case *mdl.Send:
		bc.send(e)

	default:
		bc.fail(e.Pos(), "unsupported expression %T", e)
	}
}

// binary compiles operators; and/or become short-circuit jumps exactly
// mirroring the tree-walker's evaluation order.
func (bc *bodyCompiler) binary(e *mdl.Binary) {
	if e.Op == mdl.OpAnd || e.Op == mdl.OpOr {
		bc.expr(e.L)
		op := OpScAnd
		if e.Op == mdl.OpOr {
			op = OpScOr
		}
		sc := bc.emit(op, 0, 0, e.L.Pos())
		bc.pop(1)
		bc.expr(e.R)
		bc.emit(OpBool, 0, 0, e.R.Pos())
		bc.patch(sc) // short-circuit lands after the OpBool, value pushed
		return
	}

	bc.expr(e.L)
	bc.expr(e.R)
	var op Op
	switch e.Op {
	case mdl.OpEq:
		op = OpEq
	case mdl.OpNeq:
		op = OpNeq
	case mdl.OpLt:
		op = OpLt
	case mdl.OpLeq:
		op = OpLeq
	case mdl.OpGt:
		op = OpGt
	case mdl.OpGeq:
		op = OpGeq
	case mdl.OpAdd:
		op = OpAdd
	case mdl.OpSub:
		op = OpSub
	case mdl.OpMul:
		op = OpMul
	case mdl.OpDiv:
		op = OpDiv
	case mdl.OpMod:
		op = OpMod
	default:
		bc.fail(e.At, "unknown operator %s", e.Op)
		return
	}
	bc.emit(op, 0, 0, e.At)
	bc.pop(1) // two operands out, one result in
}

// send compiles the three message forms of section 2.2.
func (bc *bodyCompiler) send(e *mdl.Send) {
	for _, a := range e.Args {
		bc.expr(a)
	}
	argc := uint16(len(e.Args))

	if e.ToSelf() {
		if e.Class == "" {
			// Late-bound self-send: resolution happens per receiver class
			// at run time, but through the interned ID — one array load.
			mid, ok := bc.s.MethodID(e.Method)
			if !ok || bc.cls.ResolveID(mid) == nil {
				bc.fail(e.At, "self-call to %q which is not in METHODS(%s)", e.Method, bc.cls.Name)
				return
			}
			bc.emit(OpSendSelf, int32(mid), argc, e.At)
			bc.pop(len(e.Args))
			bc.push(1)
			return
		}
		// Prefixed: the target method is fixed at build time.
		anc := bc.s.Class(e.Class)
		if anc == nil {
			bc.fail(e.At, "prefixed call to unknown class %q", e.Class)
			return
		}
		target := anc.Resolve(e.Method)
		if target == nil {
			bc.fail(e.At, "prefixed call %s.%s: no such method in METHODS(%s)",
				e.Class, e.Method, e.Class)
			return
		}
		mid, _ := bc.s.MethodID(e.Method)
		bc.emit(OpSendSuper, bc.superIdx(target, mid), argc, e.At)
		bc.pop(len(e.Args))
		bc.push(1)
		return
	}

	// Message to another instance: evaluate the receiver after the
	// arguments (the tree-walker's order), then a fresh top-level
	// control on that instance.
	bc.expr(e.Target)
	if mid, ok := bc.s.MethodID(e.Method); ok {
		bc.emit(OpSendRemote, int32(mid), argc, e.At)
	} else {
		// No class in the schema binds this name; the send still
		// evaluates and checks its receiver before failing, like the
		// tree-walker did.
		bc.emit(OpSendRemoteU, bc.strIdx(e.Method), argc, e.At)
	}
	bc.pop(len(e.Args) + 1)
	bc.push(1)
}
