package schema

// This file is the peephole half of the interpreter pipeline
// (lower → fuse → VM): a pass over a compiled program that folds the
// dominant instruction sequences into superinstructions, so the VM
// retires them in one dispatch instead of three or four. The compiled
// bodies of the paper's examples are dominated by a handful of shapes —
// `balance := balance + n` (load-field / push / add / store-field),
// comparison guards (`n <= balance`), and bare accessor tails
// (`return balance`) — which is exactly the superinstruction playbook
// of main-memory engines.
//
// The pass is semantics-preserving by construction, and the golden
// differential suite pins that: every transcript must be byte-for-byte
// identical between the fused and unfused programs. The load-bearing
// details:
//
//   - A fused instruction carries the source position of its *operator*
//     component, because that is the only position the VM can still
//     report: concurrency-control and read-only-mode errors are
//     returned unwrapped (no position), and the operator is the only
//     remaining failure site. OpIncField is restricted to arithmetic
//     operators so the store's assignability check cannot fail (the
//     result kind always equals the loaded field's kind), keeping the
//     store's error position unreachable.
//   - No fusion across a jump target: a sequence is only folded when
//     its interior instructions are not leaders, and all jump operands
//     are remapped to the compacted indexes afterwards.
//   - The VM charges a fused instruction the step count of the sequence
//     it replaces (see Width), so the execution step budget is spent
//     identically with and without fusion. It charges them all at
//     once, though: a budget that runs out inside the sequence stops
//     the base program midway, while the fused one finishes it and
//     fails at its next dispatch.

import "repro/internal/mdl"

// arithOnly reports operators whose result kind equals their (integer
// or string) operand kind — the OpIncField condition above.
func arithOnly(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return true
	}
	return false
}

// binOpFused reports operators the VM's binOp evaluator handles — the
// fusable operator family. OpEq/OpNeq are dispatched separately by the
// VM (any-kind equality), so they stay unfused.
func binOpFused(op Op) bool {
	switch op {
	case OpLt, OpLeq, OpGt, OpGeq, OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return true
	}
	return false
}

// Width returns how many base instructions a fused opcode replaces (1
// for everything else). The VM charges it per fused dispatch, so step
// accounting has this one source.
func Width(op Op) int {
	switch op {
	case OpIncField, OpIncSlot:
		return 4
	case OpLoadFieldOp, OpLoadSlotOp:
		return 3
	case OpReturnField, OpReturnSlot:
		return 2
	}
	return 1
}

// operand classifies an instruction as a fusable operand push: an
// inline int32 constant, a slot load, a field load, or a string
// literal (a Strs index — the concat-tail shape `s + "suffix"`). Wide
// constants (OpConstInt) stay unfused — C cannot carry them.
func operand(ins Instr) (kind int, c int32, ok bool) {
	switch ins.Op {
	case OpConstI32:
		return FuseConst, ins.A, true
	case OpLoadSlot:
		return FuseSlot, ins.A, true
	case OpLoadField:
		return FuseField, ins.A, true
	case OpConstStr:
		return FuseStr, ins.A, true
	}
	return 0, 0, false
}

// Fuse returns the superinstruction-fused form of p. The result shares
// p's resolved tables (code and positions are fresh); p itself is never
// modified, so the unfused program remains available as the reference
// the differential suite replays.
func Fuse(p *Program) *Program {
	n := len(p.Code)
	// Leaders: every jump target starts a new basic block; a fused
	// sequence must not span one, or a jump would land mid-sequence.
	leaders := make([]bool, n+1)
	for _, ins := range p.Code {
		switch ins.Op {
		case OpJump, OpJumpIfFalse, OpScAnd, OpScOr:
			leaders[ins.A] = true
		}
	}
	interior := func(pc, width int) bool {
		for i := pc + 1; i < pc+width; i++ {
			if leaders[i] {
				return true
			}
		}
		return false
	}

	out := &Program{
		Method:       p.Method,
		Ints:         p.Ints,
		Strs:         p.Strs,
		Fields:       p.Fields,
		Classes:      p.Classes,
		Supers:       p.Supers,
		Builtins:     p.Builtins,
		NumParams:    p.NumParams,
		NumSlots:     p.NumSlots,
		MaxStack:     p.MaxStack,
		StoresFields: p.StoresFields,
		Code:         make([]Instr, 0, n),
		pos:          make([]mdl.Pos, 0, n),
	}

	newIdx := make([]int, n+1)
	for pc := 0; pc < n; {
		newIdx[pc] = len(out.Code)
		fused, width := match(p, pc, interior)
		if width == 0 {
			out.Code = append(out.Code, p.Code[pc])
			out.pos = append(out.pos, p.pos[pc])
			pc++
			continue
		}
		for i := pc; i < pc+width; i++ {
			newIdx[i] = len(out.Code)
		}
		out.Code = append(out.Code, fused.ins)
		out.pos = append(out.pos, p.pos[fused.posAt])
		pc += width
	}
	newIdx[n] = len(out.Code)

	for i := range out.Code {
		switch out.Code[i].Op {
		case OpJump, OpJumpIfFalse, OpScAnd, OpScOr:
			out.Code[i].A = int32(newIdx[out.Code[i].A])
		}
	}
	return out
}

// fusion is one matched superinstruction plus the index (into the
// original code) of the component whose source position it inherits.
type fusion struct {
	ins   Instr
	posAt int
}

// match tries the fusion patterns at pc, longest first, and returns the
// replacement plus the number of instructions consumed (0: no match).
func match(p *Program, pc int, interior func(int, int) bool) (fusion, int) {
	code := p.Code
	n := len(code)

	// [LoadField f | LoadSlot s] [operand] [arith/binop] [StoreField f | StoreSlot s]
	if pc+4 <= n && !interior(pc, 4) {
		ld, opnd, op, st := code[pc], code[pc+1], code[pc+2], code[pc+3]
		if kind, c, ok := operand(opnd); ok && kind != FuseField {
			switch {
			case ld.Op == OpLoadField && st.Op == OpStoreField && ld.A == st.A && arithOnly(op.Op):
				return fusion{Instr{Op: OpIncField, A: ld.A, B: FuseB(op.Op, kind), C: c}, pc + 2}, 4
			case ld.Op == OpLoadSlot && st.Op == OpStoreSlot && ld.A == st.A && binOpFused(op.Op):
				return fusion{Instr{Op: OpIncSlot, A: ld.A, B: FuseB(op.Op, kind), C: c}, pc + 2}, 4
			}
		}
	}

	// [LoadField | LoadSlot] [operand] [binop]
	if pc+3 <= n && !interior(pc, 3) {
		ld, opnd, op := code[pc], code[pc+1], code[pc+2]
		if kind, c, ok := operand(opnd); ok && binOpFused(op.Op) {
			switch {
			case ld.Op == OpLoadField && kind != FuseField:
				// Two folded field reads would need two hook sites and two
				// error positions in one instruction; keep that shape unfused.
				return fusion{Instr{Op: OpLoadFieldOp, A: ld.A, B: FuseB(op.Op, kind), C: c}, pc + 2}, 3
			case ld.Op == OpLoadSlot:
				// kind may be FuseField here: `n <= balance` loads the slot
				// first, then the field — one hook site, still one position.
				return fusion{Instr{Op: OpLoadSlotOp, A: ld.A, B: FuseB(op.Op, kind), C: c}, pc + 2}, 3
			}
		}
	}

	// [LoadField | LoadSlot] [Return]
	if pc+2 <= n && !interior(pc, 2) && code[pc+1].Op == OpReturn {
		switch code[pc].Op {
		case OpLoadField:
			return fusion{Instr{Op: OpReturnField, A: code[pc].A}, pc}, 2
		case OpLoadSlot:
			return fusion{Instr{Op: OpReturnSlot, A: code[pc].A}, pc}, 2
		}
	}

	return fusion{}, 0
}
