package engine

// The VM executes the slot-addressed programs the schema build compiles
// from method bodies (internal/schema/program.go). It replaces the
// recursive AST tree-walker: activation frames are spans of one shared,
// pooled value stack (parameter/local slots at the bottom, operand
// stack above), every name was resolved to an integer at build time,
// and the engine never touches an mdl node during execution. Semantics
// — evaluation order, error messages, lock requests, undo logging,
// counters — mirror the tree-walker; the differential golden
// suite (golden_test.go) holds the VM to transcripts recorded from it.
// The one deliberate divergence is name scoping: locals bind in
// program order and are zero-valued until assigned (see
// schema.CompileBody and the slotFor comment there), where the
// tree-walker resolved against the run-time environment.

import (
	"fmt"
	"runtime"

	"repro/internal/lock"
	"repro/internal/schema"
	"repro/internal/storage"
)

// yieldEvery makes the VM hand the processor over periodically, so
// concurrent transactions interleave even on GOMAXPROCS=1 — the
// fairness a real engine gets from I/O and buffer-pool waits. Must be a
// power of two: the VM masks instead of dividing.
const yieldEvery = 64

// opSpelling renders operator opcodes for error messages.
var opSpelling = map[schema.Op]string{
	schema.OpEq: "=", schema.OpNeq: "<>",
	schema.OpLt: "<", schema.OpLeq: "<=", schema.OpGt: ">", schema.OpGeq: ">=",
	schema.OpAdd: "+", schema.OpSub: "-", schema.OpMul: "*",
	schema.OpDiv: "/", schema.OpMod: "%",
}

// invokeProg runs one compiled method activation on instance in. The
// caller has already performed the strategy's lock acquisition for this
// activation. Depth accounting is explicit at the two return points —
// no deferred closure on the hot path.
func (ec *execCtx) invokeProg(in *storage.Instance, p *schema.Program, args []Value) (Value, error) {
	if p == nil {
		return Value{}, fmt.Errorf("engine: method body not compiled (build the schema through core.Compile)")
	}
	if len(args) != p.NumParams {
		return Value{}, fmt.Errorf("engine: %s expects %d arguments, got %d",
			p.Method.QualifiedName(), p.NumParams, len(args))
	}
	ec.depth++
	if ec.depth > ec.db.MaxDepth {
		ec.depth--
		return Value{}, fmt.Errorf("engine: %s: send nesting exceeds %d",
			p.Method.QualifiedName(), ec.db.MaxDepth)
	}
	// Writing activations of a method with escrow slots (a bound mask)
	// serialize on the receiver's execution latch: the logical locks
	// admit a commuting writer of the same slot, so they no longer make
	// `balance := balance + n` atomic. Every other writer of a slot is
	// excluded by its locks, as under FieldCC, and takes no latch. Nested
	// self/super sends on the same receiver run under the outer frame's
	// latch; remote sends and creates release it first (unlatch), so it
	// is never held across a lock-manager acquisition.
	locked := false
	if p.StoresFields && ec.escrowMask != nil && ec.execHeld != in {
		in.LockExec()
		ec.execHeld = in
		locked = true
	}
	base := len(ec.stack)
	v, err := ec.exec(base, in, p, args)
	ec.stack = ec.stack[:base]
	ec.depth--
	if locked {
		ec.execHeld = nil
		in.UnlockExec()
	}
	return v, err
}

// readField is the field-read event. The common case, a live read
// without field locks, is a counter and the live cell; snapshot and
// field-locking reads take readFieldSlow, which keeps this frame small.
func (ec *execCtx) readField(self *storage.Instance, fld *schema.Field, p *schema.Program, pc int) (Value, error) {
	if ec.snapshot || ec.db.fieldLocks {
		return ec.readFieldSlow(self, fld, p, pc)
	}
	ec.db.fieldReads.Add(1)
	return self.Get(self.Class.Slot(fld.ID)), nil
}

// readFieldSlow is a field read under a snapshot — the slot as of the
// begin epoch, no lock: the live cell with every later commit's (and
// every uncommitted) record rolled back, inside one seqlock section of
// the receiver — or under run-time field locking, where it takes the
// field's S lock before the live cell. Invisible is unreachable for a
// receiver that passed the topSend visibility gate, but a torn
// invariant must surface, not misread.
func (ec *execCtx) readFieldSlow(self *storage.Instance, fld *schema.Field, p *schema.Program, pc int) (Value, error) {
	slot := self.Class.Slot(fld.ID)
	if ec.snapshot {
		v, ok := self.SnapshotGet(slot, ec.epoch)
		if !ok {
			return Value{}, fmt.Errorf("engine: %s: instance %d invisible at snapshot epoch %d",
				p.PosAt(pc), self.OID, ec.epoch)
		}
		ec.db.fieldReads.Add(1)
		return v, nil
	}
	if err := ec.acquireField(self, fld, false); err != nil {
		return Value{}, err
	}
	ec.db.fieldReads.Add(1)
	return self.Get(slot), nil
}

// writeField is the field-write event: the degraded-mode check (refuse
// the mutation before it happens, not at commit with locks and undo
// already built), the type check, the field lock, then the store, whose
// undo/version record is the same step (txn.Write). Slots under
// declared (escrow) commutativity — the bound escrowMask, built from
// the class's commute table — record the write as an integer delta:
// another writer of the slot is not excluded by 2PL, so a before-image
// would be stale by abort time, and the commit path logs the delta (not
// an after-image) for the same reason. The delta is exact because the
// enclosing writing frame holds the receiver's execution latch.
// Everything else records the before-image.
func (ec *execCtx) writeField(self *storage.Instance, fld *schema.Field, v Value, p *schema.Program, pc int) error {
	if err := ec.tx.Writable(); err != nil {
		return err
	}
	if err := checkAssignable(fld, v); err != nil {
		return fmt.Errorf("engine: %s: %w", p.PosAt(pc), err)
	}
	if err := ec.lockField(self, fld, true); err != nil {
		return err
	}
	slot := self.Class.Slot(fld.ID)
	m := ec.escrowMask
	ec.tx.Write(self, slot, v, m != nil && slot < len(m) && m[slot])
	ec.db.fieldWrites.Add(1)
	return nil
}

// fusedOperand decodes the right operand of a superinstruction other
// than a FuseField one: FuseConst (C is the value), FuseStr (C is a
// Strs index) or FuseSlot (C is a frame slot).
func fusedOperand(ins schema.Instr, p *schema.Program, st []Value, base int) Value {
	switch ins.FusedKind() {
	case schema.FuseConst:
		return storage.IntV(int64(ins.C))
	case schema.FuseStr:
		return storage.StrV(p.Strs[ins.C])
	}
	return st[base+int(ins.C)]
}

// lockNested walks the nested-send plan of mid on the receiver's class.
// It is empty under every protocol that folds self-sends into the top
// method's mode, so those sends take nothing. mid is always in
// METHODS(self.Class): plain self-sends checked their program, and
// extraction admits prefixed calls to ancestors' methods only.
func (ec *execCtx) lockNested(self *storage.Instance, mid schema.MethodID) error {
	plan := ec.db.rt.classes[self.Class.ID].plans[mid].nested
	if len(plan) == 0 || ec.snapshot {
		return nil
	}
	return plan.acquire(ec.acq, uint64(self.OID))
}

// lockField is the field-access event: one (instance, field) lock, S to
// read and X to write, under run-time field locking; nothing under every
// other protocol, whose plans already cover the field. Small enough to
// inline, so the common case is one load and a branch.
func (ec *execCtx) lockField(self *storage.Instance, fld *schema.Field, write bool) error {
	if !ec.db.fieldLocks {
		return nil
	}
	return ec.acquireField(self, fld, write)
}

// acquireField takes the field lock, then checks the receiver again:
// under field locking an activation meets a concurrent delete here, and
// fails once the deleter it queued behind has committed.
func (ec *execCtx) acquireField(self *storage.Instance, fld *schema.Field, write bool) error {
	mode := lock.S
	if write {
		mode = lock.X
	}
	if err := ec.acq.Acquire(lock.FieldRes(uint64(self.OID), int32(fld.ID)), mode); err != nil {
		return err
	}
	if !ec.visible(self) {
		return fmt.Errorf("engine: no instance with OID %d", self.OID)
	}
	return nil
}

// exec is the dispatch loop of one activation. The frame lives at
// ec.stack[base : base+p.FrameSize()]; all accesses go through absolute
// indexes so that nested activations growing the shared stack (which
// may reallocate it) never invalidate this frame. The cached slice
// header st is refreshed after every op that can run a nested
// activation.
func (ec *execCtx) exec(base int, self *storage.Instance, p *schema.Program, args []Value) (Value, error) {
	top := base + p.FrameSize()
	if cap(ec.stack) >= top {
		ec.stack = ec.stack[:top]
	} else {
		grown := make([]Value, top, top+top/2+16)
		copy(grown, ec.stack)
		ec.stack = grown
	}
	st := ec.stack
	copy(st[base:], args)
	clear(st[base+len(args) : base+p.NumSlots]) // locals start zeroed
	sp := base + p.NumSlots                     // operand stack pointer, absolute

	db := ec.db
	code := p.Code
	pc := 0
	steps, ticks := ec.steps, ec.ticks

	for {
		steps--
		if steps < 0 {
			ec.steps = steps
			return Value{}, fmt.Errorf("engine: %s: execution exceeded step budget", p.PosAt(pc))
		}
		ticks++
		if ticks&(yieldEvery-1) == 0 {
			runtime.Gosched()
		}
		ins := code[pc]
		pc++

		switch ins.Op {
		case schema.OpConstI32:
			st[sp] = storage.IntV(int64(ins.A))
			sp++
		case schema.OpConstInt:
			st[sp] = storage.IntV(p.Ints[ins.A])
			sp++
		case schema.OpConstBool:
			st[sp] = storage.BoolV(ins.A != 0)
			sp++
		case schema.OpConstStr:
			st[sp] = storage.StrV(p.Strs[ins.A])
			sp++
		case schema.OpSelf:
			st[sp] = storage.RefV(self.OID)
			sp++
		case schema.OpPop:
			sp--

		case schema.OpLoadSlot:
			st[sp] = st[base+int(ins.A)]
			sp++
		case schema.OpStoreSlot:
			sp--
			st[base+int(ins.A)] = st[sp]

		case schema.OpLoadField:
			v, err := ec.readField(self, p.Fields[ins.A], p, pc-1)
			if err != nil {
				return Value{}, err
			}
			st[sp] = v
			sp++

		case schema.OpStoreField:
			sp--
			if err := ec.writeField(self, p.Fields[ins.A], st[sp], p, pc-1); err != nil {
				return Value{}, err
			}

		case schema.OpJump:
			pc = int(ins.A)

		case schema.OpJumpIfFalse:
			sp--
			v := st[sp]
			if v.Kind != storage.KBool {
				return Value{}, fmt.Errorf("engine: %s: condition is %s, not boolean", p.PosAt(pc-1), v)
			}
			if !v.B {
				pc = int(ins.A)
			}

		case schema.OpScAnd:
			sp--
			v := st[sp]
			if v.Kind != storage.KBool {
				return Value{}, fmt.Errorf("engine: %s: condition is %s, not boolean", p.PosAt(pc-1), v)
			}
			if !v.B {
				st[sp] = storage.BoolV(false)
				sp++
				pc = int(ins.A)
			}

		case schema.OpScOr:
			sp--
			v := st[sp]
			if v.Kind != storage.KBool {
				return Value{}, fmt.Errorf("engine: %s: condition is %s, not boolean", p.PosAt(pc-1), v)
			}
			if v.B {
				st[sp] = storage.BoolV(true)
				sp++
				pc = int(ins.A)
			}

		case schema.OpBool:
			if v := st[sp-1]; v.Kind != storage.KBool {
				return Value{}, fmt.Errorf("engine: %s: condition is %s, not boolean", p.PosAt(pc-1), v)
			}

		case schema.OpNot:
			v := st[sp-1]
			if v.Kind != storage.KBool {
				return Value{}, fmt.Errorf("engine: %s: not applied to %s", p.PosAt(pc-1), v)
			}
			st[sp-1] = storage.BoolV(!v.B)

		case schema.OpNeg:
			v := st[sp-1]
			if v.Kind != storage.KInt {
				return Value{}, fmt.Errorf("engine: %s: negation applied to %s", p.PosAt(pc-1), v)
			}
			st[sp-1] = storage.IntV(-v.I)

		case schema.OpEq, schema.OpNeq:
			l, r := st[sp-2], st[sp-1]
			sp--
			if l.Kind != r.Kind {
				return Value{}, typeMismatch(p, pc-1, ins.Op, l, r)
			}
			st[sp-1] = storage.BoolV((l == r) == (ins.Op == schema.OpEq))

		case schema.OpLt, schema.OpLeq, schema.OpGt, schema.OpGeq,
			schema.OpAdd, schema.OpSub, schema.OpMul, schema.OpDiv, schema.OpMod:
			l, r := st[sp-2], st[sp-1]
			sp--
			v, err := binOp(p, pc-1, ins.Op, l, r)
			if err != nil {
				return Value{}, err
			}
			st[sp-1] = v

		case schema.OpCallBuiltin:
			argc := int(ins.B)
			v, err := evalBuiltin(&p.Builtins[ins.A], st[sp-argc:sp], p, pc-1)
			if err != nil {
				return Value{}, err
			}
			sp -= argc
			st[sp] = v
			sp++

		case schema.OpNew:
			argc := int(ins.B)
			held := ec.unlatch() // Create acquires class locks
			created, err := ec.create(p.Classes[ins.A], st[sp-argc:sp])
			ec.relatch(held)
			if err != nil {
				return Value{}, err
			}
			sp -= argc
			st[sp] = storage.RefV(created.OID)
			sp++

		case schema.OpSendSelf:
			argc := int(ins.B)
			mid := schema.MethodID(ins.A)
			callee := db.rt.classes[self.Class.ID].progAt(mid)
			if callee == nil {
				return Value{}, fmt.Errorf("engine: %s: no method %q", p.PosAt(pc-1), db.rt.MethodName(mid))
			}
			if err := ec.lockNested(self, mid); err != nil {
				return Value{}, err
			}
			db.nestedSends.Add(1)
			ec.steps, ec.ticks = steps, ticks
			v, err := ec.invokeProg(self, callee, st[sp-argc:sp])
			if err != nil {
				return Value{}, err
			}
			steps, ticks = ec.steps, ec.ticks
			st = ec.stack
			sp -= argc
			st[sp] = v
			sp++

		case schema.OpSendSuper:
			argc := int(ins.B)
			sc := &p.Supers[ins.A]
			if err := ec.lockNested(self, sc.MID); err != nil {
				return Value{}, err
			}
			db.nestedSends.Add(1)
			callee := sc.Method.Program
			if db.useFused {
				callee = callee.Fused
			}
			ec.steps, ec.ticks = steps, ticks
			v, err := ec.invokeProg(self, callee, st[sp-argc:sp])
			if err != nil {
				return Value{}, err
			}
			steps, ticks = ec.steps, ec.ticks
			st = ec.stack
			sp -= argc
			st[sp] = v
			sp++

		case schema.OpSendRemote:
			argc := int(ins.B)
			sp--
			tv := st[sp]
			if tv.Kind != storage.KRef {
				return Value{}, fmt.Errorf("engine: %s: send target is %s, not a reference", p.PosAt(pc-1), tv)
			}
			if tv.R == 0 {
				return Value{}, fmt.Errorf("engine: %s: send %s to nil reference",
					p.PosAt(pc-1), db.rt.MethodName(schema.MethodID(ins.A)))
			}
			db.remoteSends.Add(1)
			ec.steps, ec.ticks = steps, ticks
			held := ec.unlatch() // the remote top send acquires locks
			v, err := ec.topSend(tv.R, schema.MethodID(ins.A), st[sp-argc:sp])
			ec.relatch(held)
			if err != nil {
				return Value{}, err
			}
			steps, ticks = ec.steps, ec.ticks
			st = ec.stack
			sp -= argc
			st[sp] = v
			sp++

		case schema.OpSendRemoteU:
			// A send of a name no class of the schema binds: evaluate and
			// check the receiver like any remote send, then fail with the
			// late-bound diagnostics.
			argc := int(ins.B)
			sp--
			tv := st[sp]
			name := p.Strs[ins.A]
			if tv.Kind != storage.KRef {
				return Value{}, fmt.Errorf("engine: %s: send target is %s, not a reference", p.PosAt(pc-1), tv)
			}
			if tv.R == 0 {
				return Value{}, fmt.Errorf("engine: %s: send %s to nil reference", p.PosAt(pc-1), name)
			}
			db.remoteSends.Add(1)
			ec.steps, ec.ticks = steps, ticks
			held := ec.unlatch() // the remote top send acquires locks
			v, err := ec.topSendName(tv.R, name, st[sp-argc:sp])
			ec.relatch(held)
			if err != nil {
				return Value{}, err
			}
			steps, ticks = ec.steps, ec.ticks
			st = ec.stack
			sp -= argc
			st[sp] = v
			sp++

		case schema.OpReturn:
			ec.steps, ec.ticks = steps, ticks
			return st[sp-1], nil

		case schema.OpReturnNil:
			ec.steps, ec.ticks = steps, ticks
			return Value{}, nil

		// Superinstructions (see schema.Fuse). Each case replays the
		// effects of the base sequence it replaces in the exact order —
		// lock requests, counters, undo logging and error sites
		// included — and charges the sequence's full step count
		// (schema.Width; the dispatch above charged one), so execution
		// is indistinguishable from the unfused program apart from
		// dispatch cost and from where a step budget that runs out
		// inside the sequence fails. The right operand decodes through
		// fusedOperand, except FuseField (C is a Fields index), which
		// reads a field.

		case schema.OpIncField:
			steps -= schema.Width(schema.OpIncField) - 1
			fld := p.Fields[ins.A]
			// Under a snapshot the read is unreachable from a method the
			// gate admitted (IncField implies a field store, hence a
			// writing TAV), but fused and unfused fail in the same order:
			// the read succeeds, then the store fails Writable.
			l, err := ec.readField(self, fld, p, pc-1)
			if err != nil {
				return Value{}, err
			}
			v, err := binOp(p, pc-1, ins.FusedOp(), l, fusedOperand(ins, p, st, base))
			if err != nil {
				return Value{}, err
			}
			// checkAssignable cannot fail for the arithmetic operators Fuse
			// folds (the result kind equals the field's stored kind).
			if err := ec.writeField(self, fld, v, p, pc-1); err != nil {
				return Value{}, err
			}

		case schema.OpIncSlot:
			steps -= schema.Width(schema.OpIncSlot) - 1
			v, err := binOp(p, pc-1, ins.FusedOp(), st[base+int(ins.A)], fusedOperand(ins, p, st, base))
			if err != nil {
				return Value{}, err
			}
			st[base+int(ins.A)] = v

		case schema.OpLoadFieldOp:
			steps -= schema.Width(schema.OpLoadFieldOp) - 1
			l, err := ec.readField(self, p.Fields[ins.A], p, pc-1)
			if err != nil {
				return Value{}, err
			}
			v, err := binOp(p, pc-1, ins.FusedOp(), l, fusedOperand(ins, p, st, base))
			if err != nil {
				return Value{}, err
			}
			st[sp] = v
			sp++

		case schema.OpLoadSlotOp:
			steps -= schema.Width(schema.OpLoadSlotOp) - 1
			var r Value
			if ins.FusedKind() == schema.FuseField {
				var err error
				if r, err = ec.readField(self, p.Fields[ins.C], p, pc-1); err != nil {
					return Value{}, err
				}
			} else {
				r = fusedOperand(ins, p, st, base)
			}
			v, err := binOp(p, pc-1, ins.FusedOp(), st[base+int(ins.A)], r)
			if err != nil {
				return Value{}, err
			}
			st[sp] = v
			sp++

		case schema.OpReturnField:
			steps -= schema.Width(schema.OpReturnField) - 1
			v, err := ec.readField(self, p.Fields[ins.A], p, pc-1)
			if err != nil {
				return Value{}, err
			}
			ec.steps, ec.ticks = steps, ticks
			return v, nil

		case schema.OpReturnSlot:
			steps -= schema.Width(schema.OpReturnSlot) - 1
			ec.steps, ec.ticks = steps, ticks
			return st[base+int(ins.A)], nil

		default:
			return Value{}, fmt.Errorf("engine: %s: unknown opcode %d", p.PosAt(pc-1), ins.Op)
		}
	}
}

func typeMismatch(p *schema.Program, pc int, op schema.Op, l, r Value) error {
	return fmt.Errorf("engine: %s: operands of %s have different types (%s, %s)",
		p.PosAt(pc), opSpelling[op], l, r)
}

// binOp evaluates the comparison and arithmetic operators, preserving
// the tree-walker's typing rules and diagnostics.
func binOp(p *schema.Program, pc int, op schema.Op, l, r Value) (Value, error) {
	if l.Kind != r.Kind {
		return Value{}, typeMismatch(p, pc, op, l, r)
	}
	switch l.Kind {
	case storage.KInt:
		switch op {
		case schema.OpAdd:
			return storage.IntV(l.I + r.I), nil
		case schema.OpSub:
			return storage.IntV(l.I - r.I), nil
		case schema.OpMul:
			return storage.IntV(l.I * r.I), nil
		case schema.OpDiv:
			if r.I == 0 {
				return Value{}, fmt.Errorf("engine: %s: division by zero", p.PosAt(pc))
			}
			return storage.IntV(l.I / r.I), nil
		case schema.OpMod:
			if r.I == 0 {
				return Value{}, fmt.Errorf("engine: %s: modulo by zero", p.PosAt(pc))
			}
			return storage.IntV(l.I % r.I), nil
		case schema.OpLt:
			return storage.BoolV(l.I < r.I), nil
		case schema.OpLeq:
			return storage.BoolV(l.I <= r.I), nil
		case schema.OpGt:
			return storage.BoolV(l.I > r.I), nil
		case schema.OpGeq:
			return storage.BoolV(l.I >= r.I), nil
		}
	case storage.KString:
		switch op {
		case schema.OpAdd:
			return storage.StrV(l.S + r.S), nil
		case schema.OpLt:
			return storage.BoolV(l.S < r.S), nil
		case schema.OpLeq:
			return storage.BoolV(l.S <= r.S), nil
		case schema.OpGt:
			return storage.BoolV(l.S > r.S), nil
		case schema.OpGeq:
			return storage.BoolV(l.S >= r.S), nil
		}
	}
	return Value{}, fmt.Errorf("engine: %s: operator %s not defined on %s", p.PosAt(pc), opSpelling[op], l)
}

func checkAssignable(fld *schema.Field, v Value) error {
	if v.Kind != storage.KindOf(fld.Type) {
		return fmt.Errorf("cannot assign %s to field %s of type %s", v, fld.Name, fld.Type)
	}
	return nil
}
