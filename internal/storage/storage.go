// Package storage is the in-memory object store underneath the engine:
// instances with OIDs and typed slots, class extents, and the domain
// extents (class + subclasses) the hierarchical locking protocol of
// section 5.2 scans. It performs no concurrency control of its own
// beyond short internal latches — isolation is entirely the lock
// manager's job, which is what the paper's protocol controls.
//
// Layout: OIDs are allocated sequentially, so the OID → instance map is
// a page directory of fixed-size slabs whose slots are atomic pointers.
// Get is two array indexes and one atomic load — no lock, no hashing.
// Mutations (create/delete) take only the per-class extent
// latch of the touched class, so churn on different classes never
// contends; the page directory itself grows copy-on-write under a
// dedicated mutex.
//
// Cells: the schema fixes every slot's type when the class is built
// (schema.Class.SlotType), so a stored cell holds only its value words
// and its kind is read from the class. What keeps a cell coherent is
// that nothing ever stores a value of another kind into it: creation
// and Install return an error for one, and every in-place writer (Set,
// AddInt, SetSlots, Store.Write) panics on one before it takes the
// writer latch. The engine and recovery check kinds before they get
// here, so the panic is unreachable from them.
package storage

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/schema"
)

// OID identifies an instance. Object identifiers "play the role of
// primary and foreign keys" (section 5.2's closing remark).
type OID uint64

// ValueKind tags a Value.
type ValueKind uint8

// Value kinds: the base types of section 2.1 plus references, in the
// order of schema.FieldType, so KindOf is a conversion.
const (
	KInt ValueKind = iota
	KBool
	KString
	KRef
)

// The orders agree: any drift fails to compile.
func _() {
	var x [1]struct{}
	_ = x[schema.TInt-schema.FieldType(KInt)]
	_ = x[schema.TBool-schema.FieldType(KBool)]
	_ = x[schema.TString-schema.FieldType(KString)]
	_ = x[schema.TRef-schema.FieldType(KRef)]
}

// KindOf returns the value kind a field of type t holds.
func KindOf(t schema.FieldType) ValueKind { return ValueKind(t) }

// Value is a field value: integer, boolean, string, or a reference to
// another instance (OID 0 is the nil reference).
type Value struct {
	Kind ValueKind
	I    int64
	B    bool
	S    string
	R    OID
}

// IntV returns an integer value.
func IntV(i int64) Value { return Value{Kind: KInt, I: i} }

// BoolV returns a boolean value.
func BoolV(b bool) Value { return Value{Kind: KBool, B: b} }

// StrV returns a string value.
func StrV(s string) Value { return Value{Kind: KString, S: s} }

// RefV returns a reference value.
func RefV(oid OID) Value { return Value{Kind: KRef, R: oid} }

// GoToValue converts a Go value (int, int64, bool, string or OID) into
// a Value. It and ValueToGo are the one mapping between the Go values
// of the public APIs (oodb, oodb/client) and the engine's Values.
func GoToValue(a any) (Value, error) {
	switch v := a.(type) {
	case int:
		return IntV(int64(v)), nil
	case int64:
		return IntV(v), nil
	case bool:
		return BoolV(v), nil
	case string:
		return StrV(v), nil
	case OID:
		return RefV(v), nil
	}
	return Value{}, fmt.Errorf("storage: unsupported argument type %T", a)
}

// GoToValues converts Go values with GoToValue (nil for none).
func GoToValues(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := GoToValue(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ValueToGo converts a Value into its Go value: int64, bool, string or
// OID.
func ValueToGo(v Value) any {
	switch v.Kind {
	case KInt:
		return v.I
	case KBool:
		return v.B
	case KString:
		return v.S
	}
	return v.R
}

// Zero returns the zero value for a field type.
func Zero(t schema.FieldType) Value { return Value{Kind: KindOf(t)} }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KBool:
		return fmt.Sprintf("%t", v.B)
	case KString:
		return fmt.Sprintf("%q", v.S)
	case KRef:
		if v.R == 0 {
			return "nil"
		}
		return fmt.Sprintf("ref(%d)", v.R)
	}
	return "value(?)"
}

// aslot is the stored form of one slot: the words of a Value split into
// atomic cells so readers never observe a torn word and the race
// detector sees every access as synchronized. The cell carries no kind:
// the slot's kind is its class's (schema.Class.SlotType), and a version
// record's is that of the slot it covers. sp is nil in every cell that
// is not a non-empty string's, because no writer stores a value of
// another kind into a slot (see the package comment), so copying both
// words never carries a stale pointer into an integer cell.
//
// Strings are two words (pointer, length); the pair is stored as a raw
// *byte plus a length and only rejoined with unsafe.String after the
// instance's sequence counter has validated that both cells came from
// the same committed write. The atomic.Pointer keeps the backing bytes
// reachable for the GC.
type aslot struct {
	num atomic.Int64         // KInt: I · KBool: 0/1 · KRef: OID · KString: byte length
	sp  atomic.Pointer[byte] // KString: data pointer (nil when empty)
}

// store publishes v into the slot, whose kind must be v's. Callers
// serialize writers (Instance writes hold in.mu) and bracket the store
// with seq bumps.
func (sl *aslot) store(v Value) {
	switch v.Kind {
	case KInt:
		sl.num.Store(v.I)
	case KBool:
		var n int64
		if v.B {
			n = 1
		}
		sl.num.Store(n)
	case KString:
		sl.num.Store(int64(len(v.S)))
		if len(v.S) > 0 {
			sl.sp.Store(unsafe.StringData(v.S))
		} else {
			sl.sp.Store(nil)
		}
	default:
		sl.num.Store(int64(v.R))
	}
}

// load reads the raw cells of a slot of kind k. The caller must
// re-validate the sequence counter before materializing the result (see
// mkValue) — until then the pair may mix words from two different
// writes.
func (sl *aslot) load(k ValueKind) (num int64, sp *byte) {
	num = sl.num.Load()
	if k == KString {
		sp = sl.sp.Load()
	}
	return num, sp
}

// copyFrom makes sl a copy of src's cells, string pointer included (nil
// unless src holds a non-empty string). Callers hold the writer latch of
// the instance both belong to.
func (sl *aslot) copyFrom(src *aslot) {
	sl.num.Store(src.num.Load())
	sl.sp.Store(src.sp.Load())
}

// mkValue rejoins raw cells into a Value of kind k. Only call it on
// cells that a sequence-counter check has proven coherent: for strings
// it trusts that sp and num describe the same backing array.
func mkValue(k ValueKind, num int64, sp *byte) Value {
	switch k {
	case KInt:
		return Value{Kind: KInt, I: num}
	case KBool:
		return Value{Kind: KBool, B: num != 0}
	case KString:
		if sp == nil {
			return Value{Kind: KString}
		}
		return Value{Kind: KString, S: unsafe.String(sp, num)}
	default:
		return Value{Kind: KRef, R: OID(num)}
	}
}

// seqSpins bounds the optimistic retries of a seqlock reader before it
// yields the processor. On GOMAXPROCS=1 a writer preempted mid-write
// (seq odd) can only finish if the reader yields, so the Gosched is a
// liveness requirement, not a tuning knob.
const seqSpins = 128

// Instance is one stored object. Slots follow cls.Fields order. Reads
// (Get/GetField/Snapshot/AppendSlots) are lock-free seqlock reads:
// writers bump seq to odd before mutating and back to even after, and
// readers retry until they observe a stable even count around the whole
// read. Writes still serialize on mu (physical consistency only —
// transactional isolation comes from the lock manager).
//
// The header is 80 bytes, an allocation size class of its own;
// TestStoreLayout pins it.
type Instance struct {
	OID   OID
	Class *schema.Class

	mu  sync.Mutex // serializes writers
	seq atomic.Uint32

	// extentPos is the instance's index in its class extent, kept
	// current by swap-removal. Guarded by the extent latch; int32 so it
	// packs beside seq (extents are capped at maxExtent).
	extentPos int32

	slots []aslot

	// execMu serializes escrow-writing method activations on this
	// instance and the rollback of their deltas (LockExec/UnlockExec).
	// Separate from mu — it is held for the span
	// of a frame's field accesses, during which mu is taken and
	// released per slot access.
	execMu sync.Mutex

	// verHead is the newest record of the version chain (see
	// version.go): the before-images of writes some snapshot reader may
	// still have to roll back. nil means the live cells are what every
	// snapshot sees. verFree is the recycle list for pruned records.
	// Both change only under mu with seq odd.
	verHead atomic.Pointer[Version]
	verFree *Version
}

// LockExec acquires the instance's execution latch. Two holders exist:
// a writing method activation whose method writes a slot under declared
// (escrow) commutativity — logical locks then do not exclude two writers
// of the slot, so the read-modify-write inside the method body needs
// physical serialization — and the rollback of such a write, which
// subtracts its delta from the same cell. Never hold it across anything
// that can block on the lock manager.
func (in *Instance) LockExec() { in.execMu.Lock() }

// UnlockExec releases the execution latch.
func (in *Instance) UnlockExec() { in.execMu.Unlock() }

// kind returns the kind of slot i, fixed by the class.
func (in *Instance) kind(i int) ValueKind { return KindOf(in.Class.SlotType(i)) }

// mustKind returns the kind of slot i and panics unless it is want: a
// cell keeps no kind of its own, so a mismatched store would leave, in a
// string slot, a length beside a stale pointer. Writers call it before
// they take the latch, so the panic leaves the instance usable.
func (in *Instance) mustKind(i int, want ValueKind) ValueKind {
	k := in.kind(i)
	if want != k {
		panic(kindError{in, i, want})
	}
	return k
}

// kindError is mustKind's panic value.
type kindError struct {
	in   *Instance
	slot int
	want ValueKind
}

func (e kindError) Error() string {
	cls := e.in.Class
	return fmt.Sprintf("storage: %s#%d: %s field %s cannot hold a %s", cls.Name, e.in.OID,
		cls.SlotType(e.slot), cls.Fields[e.slot].QualifiedName(), schema.FieldType(e.want))
}

// Get returns the value in slot i without taking any lock: it reads the
// slot's atomic cells under a seqlock and retries if a concurrent Set
// overlapped the read (the sequence counter moved or was odd).
func (in *Instance) Get(i int) Value {
	k := in.kind(i)
	sl := &in.slots[i]
	for spins := 0; ; spins++ {
		s1 := in.seq.Load()
		if s1&1 == 0 {
			num, sp := sl.load(k)
			if in.seq.Load() == s1 {
				return mkValue(k, num, sp)
			}
		}
		if spins >= seqSpins {
			runtime.Gosched()
		}
	}
}

// Set stores v into slot i and returns the previous value. Writers
// serialize on mu and bump the sequence counter to odd for the span of
// the mutation so concurrent readers discard anything they saw. It
// panics if v is not of the slot's kind.
func (in *Instance) Set(i int, v Value) Value {
	k := in.mustKind(i, v.Kind)
	in.mu.Lock()
	sl := &in.slots[i]
	num, sp := sl.load(k) // coherent: mu excludes other writers
	old := mkValue(k, num, sp)
	in.seq.Add(1)
	sl.store(v)
	in.seq.Add(1)
	in.mu.Unlock()
	return old
}

// AddInt adds delta to the integer in slot i under the writer latch and
// one sequence-counter window, returning the resulting value. This is
// the delta-undo primitive for declared-commuting slots: an aborting
// transaction subtracts exactly its own contribution, so a concurrent
// commuting writer's interleaved update survives the abort (a plain
// pre-image restore would erase it). It panics on a slot that is not an
// integer.
func (in *Instance) AddInt(i int, delta int64) Value {
	in.mustKind(i, KInt)
	in.mu.Lock()
	sl := &in.slots[i]
	in.seq.Add(1)
	v := Value{Kind: KInt, I: sl.num.Add(delta)}
	in.seq.Add(1)
	in.mu.Unlock()
	return v
}

// GetField returns the value of a field by global ID.
func (in *Instance) GetField(id schema.FieldID) (Value, error) {
	s := in.Class.Slot(id)
	if s < 0 {
		return Value{}, fmt.Errorf("storage: instance %d of %s has no field %d",
			in.OID, in.Class.Name, id)
	}
	return in.Get(s), nil
}

// Snapshot copies all slots (for undo capture and assertions).
func (in *Instance) Snapshot() []Value {
	return in.AppendSlots(make([]Value, 0, len(in.slots)))
}

// AppendSlots appends all slots to buf as one consistent image without
// taking any lock: the whole copy runs under one seqlock read, so a
// concurrent Set restarts it (pass a reused buffer to avoid
// allocating). The redo log uses it to serialize create records.
func (in *Instance) AppendSlots(buf []Value) []Value {
	n := len(buf)
	for spins := 0; ; spins++ {
		s1 := in.seq.Load()
		if s1&1 == 0 {
			buf = buf[:n]
			ok := true
			for i := range in.slots {
				// Validate before materializing: mkValue must only see
				// cells proven to come from one committed write.
				k := in.kind(i)
				num, sp := in.slots[i].load(k)
				if in.seq.Load() != s1 {
					ok = false
					break
				}
				buf = append(buf, mkValue(k, num, sp))
			}
			if ok {
				return buf
			}
		}
		if spins >= seqSpins {
			runtime.Gosched()
		}
	}
}

// SetSlots overwrites the leading slots from vals under one writer latch
// and one sequence-counter window — the path of recovery that applies a
// create record to an instance that already exists (a create
// overwrites). It panics, before writing any slot, if a value is not of its
// slot's kind.
func (in *Instance) SetSlots(vals []Value) {
	vals = vals[:min(len(vals), len(in.slots))]
	for i, v := range vals {
		in.mustKind(i, v.Kind)
	}
	in.mu.Lock()
	in.seq.Add(1)
	for i, v := range vals {
		in.slots[i].store(v)
	}
	in.seq.Add(1)
	in.mu.Unlock()
}

// Page geometry: 4096 instance slots per slab.
const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one slab of the OID-indexed instance table.
type page [pageSize]atomic.Pointer[Instance]

// extent is the per-class extent: the proper instances of one class,
// swap-removable in O(1), with a versioned snapshot so scans iterate
// copy-free while mutations proceed under the latch.
type extent struct {
	mu   sync.Mutex
	oids []OID
	// snap caches an immutable copy of oids. Mutators clear it (under
	// mu); readers either reuse the published version copy-free or
	// rebuild it once after a mutation. A reader holding an older
	// version keeps a consistent snapshot of a past state.
	snap atomic.Pointer[[]OID]
	_    [64]byte // keep neighbouring class latches off one cache line
}

// maxExtent caps a class extent so an instance's extentPos fits in an
// int32. A variable only so tests can reach the cap.
var maxExtent = math.MaxInt32

// full reports whether the extent is at maxExtent. Requires e.mu held.
func (e *extent) full() bool { return len(e.oids) >= maxExtent }

// add appends in, recording its position. Requires e.mu held and the
// extent not full.
func (e *extent) add(in *Instance) {
	in.extentPos = int32(len(e.oids))
	e.oids = append(e.oids, in.OID)
	e.invalidate()
}

// invalidate drops the cached snapshot. Requires e.mu held.
func (e *extent) invalidate() { e.snap.Store(nil) }

// snapshot returns an immutable view of the extent's OIDs. The returned
// slice must not be modified; it stays valid (as a past version) however
// the extent mutates afterwards.
func (e *extent) snapshot() []OID {
	if p := e.snap.Load(); p != nil {
		return *p
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.snap.Load(); p != nil {
		return *p
	}
	cp := append([]OID(nil), e.oids...)
	e.snap.Store(&cp)
	return cp
}

// Store holds every instance, slab-indexed by OID, and per-class
// extents indexed by dense class ID.
type Store struct {
	dir     atomic.Pointer[[]*page] // page directory; grows copy-on-write
	growMu  sync.Mutex              // serializes directory growth
	nextOID atomic.Uint64
	count   atomic.Int64

	schema  *schema.Schema
	extents []extent // by schema.Class.ID

	// Multiversion read state (see version.go): commit-epoch counters,
	// the active snapshot-reader registry that drives version
	// reclamation, and the record arena.
	epochNext    atomic.Uint64
	epochStable  atomic.Uint64
	epochDurable atomic.Uint64
	snapshots    snapReg
	versions     verArena

	// MVCC telemetry: lifetime records linked and records reclaimed by
	// pruning, read by the engine's metrics registry.
	versionsPublished atomic.Int64
	versionsReclaimed atomic.Int64
}

// NewStore returns an empty store for instances of the given schema.
func NewStore(s *schema.Schema) *Store {
	st := &Store{
		schema:  s,
		extents: make([]extent, s.NumClasses()),
	}
	dir := make([]*page, 1)
	dir[0] = new(page)
	st.dir.Store(&dir)
	st.epochDurable.Store(math.MaxUint64)
	st.snapshots.minBegin.Store(math.MaxUint64)
	return st
}

// slot returns the directory slot of an OID, or nil if the directory
// has not grown that far.
func (s *Store) slot(oid OID) *atomic.Pointer[Instance] {
	dir := *s.dir.Load()
	pi := uint64(oid) >> pageBits
	if oid == 0 || pi >= uint64(len(dir)) {
		return nil
	}
	return &dir[pi][uint64(oid)&pageMask]
}

// grow extends the page directory to cover oid. The directory slice is
// replaced copy-on-write (pages themselves are stable), so concurrent
// Get needs no lock.
func (s *Store) grow(oid OID) *atomic.Pointer[Instance] {
	s.growMu.Lock()
	defer s.growMu.Unlock()
	dir := *s.dir.Load()
	need := int(uint64(oid)>>pageBits) + 1
	if need > len(dir) {
		ndir := make([]*page, need, max(need, 2*len(dir)))
		copy(ndir, dir)
		for i := len(dir); i < need; i++ {
			ndir[i] = new(page)
		}
		s.dir.Store(&ndir)
	}
	return s.slot(oid)
}

// NewInstance allocates an instance of cls, filling slots positionally
// from vals and zero-filling the rest. The value kinds must match the
// field types, and the class extent must have room (maxExtent).
func (s *Store) NewInstance(cls *schema.Class, vals ...Value) (*Instance, error) {
	in, _, err := s.newInstance(cls, vals, 0)
	return in, err
}

// NewUncommitted is NewInstance for transaction txn's creation: the
// instance enters the store already carrying a pending creation marker
// naming txn, so neither a snapshot nor another transaction sees it (see
// SnapshotVisible) until txn stamps the marker at commit.
func (s *Store) NewUncommitted(txn uint64, cls *schema.Class, vals ...Value) (*Instance, *Version, error) {
	return s.newInstance(cls, vals, txn)
}

// newInstance creates an instance, carrying a creation marker naming txn
// unless txn is 0 (transaction IDs start at 1).
func (s *Store) newInstance(cls *schema.Class, vals []Value, txn uint64) (*Instance, *Version, error) {
	if len(vals) > cls.NumSlots() {
		return nil, nil, fmt.Errorf("storage: class %s has %d fields, got %d values",
			cls.Name, cls.NumSlots(), len(vals))
	}
	slots := make([]aslot, cls.NumSlots()) // zero cells: every kind's zero value
	for i, v := range vals {
		if err := checkKind(cls.Fields[i], v); err != nil {
			return nil, nil, err
		}
		slots[i].store(v)
	}
	oid := OID(s.nextOID.Add(1))
	in := &Instance{OID: oid, Class: cls, slots: slots}
	sl := s.slot(oid)
	if sl == nil {
		sl = s.grow(oid)
	}
	ext := &s.extents[cls.ID]
	ext.mu.Lock()
	if ext.full() {
		ext.mu.Unlock()
		return nil, nil, errExtentFull(cls)
	}
	var marker *Version
	if txn != 0 {
		// Linked before the directory publishes the instance: no reader
		// can reach it yet, so no writer window is needed.
		marker = s.link(in, SlotCreate)
		marker.old.num.Store(int64(txn))
	}
	sl.Store(in)
	ext.add(in)
	ext.mu.Unlock()
	s.count.Add(1)
	return in, marker, nil
}

func checkKind(f *schema.Field, v Value) error {
	if v.Kind != KindOf(f.Type) {
		return fmt.Errorf("storage: field %s expects %s, got %s", f.QualifiedName(), f.Type, v)
	}
	return nil
}

func errExtentFull(cls *schema.Class) error {
	return fmt.Errorf("storage: class %s already has %d instances", cls.Name, maxExtent)
}

// Schema returns the schema the store was built for.
func (s *Store) Schema() *schema.Schema { return s.schema }

// MaxOID returns the highest OID ever allocated (0 for an empty store).
func (s *Store) MaxOID() OID { return OID(s.nextOID.Load()) }

// EnsureOID raises the allocation watermark so future NewInstance calls
// never hand out an OID ≤ oid. Recovery calls it while replaying create
// records, so post-recovery allocations continue above everything the
// log has ever named.
func (s *Store) EnsureOID(oid OID) {
	for {
		cur := s.nextOID.Load()
		if cur >= uint64(oid) || s.nextOID.CompareAndSwap(cur, uint64(oid)) {
			return
		}
	}
}

// Install places an instance of cls at a fixed OID — the redo-apply
// primitive of recovery. If the OID is already live the slots are
// overwritten in place (a create overwrites); otherwise the
// instance is created and inserted into its extent. vals must cover
// every slot. Install is meant for replay into a store that is not yet
// serving transactions; concurrent Install calls are safe as long as no
// two target the same OID (parallel recovery partitions ops by
// instance, which guarantees exactly that).
func (s *Store) Install(cls *schema.Class, oid OID, vals []Value) (*Instance, error) {
	if oid == 0 {
		return nil, fmt.Errorf("storage: install %s#0: OID 0 is the nil reference", cls.Name)
	}
	if len(vals) != cls.NumSlots() {
		return nil, fmt.Errorf("storage: install %s#%d: got %d values for %d slots",
			cls.Name, oid, len(vals), cls.NumSlots())
	}
	for i, f := range cls.Fields {
		if err := checkKind(f, vals[i]); err != nil {
			return nil, err
		}
	}
	s.EnsureOID(oid)
	if in, ok := s.Get(oid); ok {
		if in.Class != cls {
			return nil, fmt.Errorf("storage: install %s#%d: OID is live as class %s",
				cls.Name, oid, in.Class.Name)
		}
		in.SetSlots(vals)
		return in, nil
	}
	in := &Instance{OID: oid, Class: cls, slots: make([]aslot, len(vals))}
	for i := range vals {
		in.slots[i].store(vals[i])
	}
	sl := s.slot(oid)
	if sl == nil {
		sl = s.grow(oid)
	}
	ext := &s.extents[cls.ID]
	ext.mu.Lock()
	defer ext.mu.Unlock()
	if ext.full() {
		return nil, errExtentFull(cls)
	}
	if !sl.CompareAndSwap(nil, in) {
		return nil, fmt.Errorf("storage: install %s#%d: concurrent install", cls.Name, oid)
	}
	ext.add(in)
	s.count.Add(1)
	return in, nil
}

// Get returns the instance with the given OID: two array indexes and
// one atomic load, no lock.
func (s *Store) Get(oid OID) (*Instance, bool) {
	sl := s.slot(oid)
	if sl == nil {
		return nil, false
	}
	in := sl.Load()
	return in, in != nil
}

// Delete removes the instance from the store and its class extent in
// O(1) (swap-removal against the tracked extent position). It is the
// physical removal, never a transaction's delete: that links a marker
// (MarkDeleted), and Delete runs when the deleter commits, when a
// creator aborts, and on replay.
func (s *Store) Delete(oid OID) error {
	in, ok := s.Get(oid)
	if !ok {
		return fmt.Errorf("storage: no instance with OID %d", oid)
	}
	ext := &s.extents[in.Class.ID]
	ext.mu.Lock()
	sl := s.slot(oid)
	if sl == nil || !sl.CompareAndSwap(in, nil) {
		// Lost a race with a concurrent Delete of the same OID.
		ext.mu.Unlock()
		return fmt.Errorf("storage: no instance with OID %d", oid)
	}
	last := len(ext.oids) - 1
	if p := int(in.extentPos); p != last {
		moved := ext.oids[last]
		ext.oids[p] = moved
		if mi, ok := s.Get(moved); ok {
			mi.extentPos = int32(p)
		}
	}
	ext.oids = ext.oids[:last]
	ext.invalidate()
	ext.mu.Unlock()
	s.count.Add(-1)
	return nil
}

// Extent returns the OIDs of the *proper* instances of one class
// (section 5.2 access (ii): "a majority of instances, if not all, of one
// class"). The returned slice is an immutable snapshot — do not modify.
func (s *Store) Extent(class string) []OID {
	c := s.schema.Class(class)
	if c == nil {
		return nil
	}
	return s.extents[c.ID].snapshot()
}

// ExtentOf is Extent keyed by class value.
func (s *Store) ExtentOf(cls *schema.Class) []OID {
	return s.extents[cls.ID].snapshot()
}

// DomainSnapshot returns per-class immutable OID snapshots for a domain
// closure (as cached by schema.Class.Domain): no OIDs are copied when
// the snapshots are warm, and no global lock is held at any point. The
// inner slices must not be modified.
func (s *Store) DomainSnapshot(domain []*schema.Class) [][]OID {
	return s.DomainSnapshotInto(make([][]OID, 0, len(domain)), domain)
}

// DomainSnapshotInto is DomainSnapshot appending into a caller-owned
// buffer (pass buf[:0] to reuse its capacity): with a warm buffer and
// warm extent snapshots it performs no allocation at all, which is what
// makes the engine's DomainScanID fast path allocation-free.
func (s *Store) DomainSnapshotInto(buf [][]OID, domain []*schema.Class) [][]OID {
	for _, c := range domain {
		if part := s.extents[c.ID].snapshot(); len(part) > 0 {
			buf = append(buf, part)
		}
	}
	return buf
}

// DomainExtent returns the OIDs of every instance whose class belongs to
// the domain rooted at cls (section 5.2 accesses (iii) and (iv)),
// flattened into one freshly allocated slice.
func (s *Store) DomainExtent(cls *schema.Class) []OID {
	var out []OID
	for _, part := range s.DomainSnapshot(cls.Domain()) {
		out = append(out, part...)
	}
	return out
}

// Count returns the total number of instances.
func (s *Store) Count() int {
	return int(s.count.Load())
}

// Pages returns the number of slab pages in the OID directory — the
// store's coarse memory footprint for the occupancy gauge.
func (s *Store) Pages() int {
	return len(*s.dir.Load())
}

// SortExtents normalizes every class extent to ascending OID order and
// repairs the tracked extent positions. Recovery calls it after replay:
// parallel replay installs instances of one class from several workers
// (and sequential replay's delete swap-removal shuffles survivors), so
// sorting is what makes the recovered extent order — and therefore scan
// order — deterministic regardless of worker count.
func (s *Store) SortExtents() {
	for i := range s.extents {
		e := &s.extents[i]
		e.mu.Lock()
		sort.Slice(e.oids, func(a, b int) bool { return e.oids[a] < e.oids[b] })
		for p, oid := range e.oids {
			if in, ok := s.Get(oid); ok {
				in.extentPos = int32(p)
			}
		}
		e.invalidate()
		e.mu.Unlock()
	}
}
