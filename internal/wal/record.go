// Package wal is the durability subsystem: a physiological redo log
// whose commit records are projected through the paper's transitive
// access vectors, group commit, checkpoints and crash recovery.
//
// The paper's section-3 remark — "Recovery uses access vectors as
// projection patterns for extracting the modified parts of instances" —
// is taken literally: a commit record contains one write op per (OID,
// slot) pair of the executed methods' TAV Write sets (exactly the pairs
// the undo log captured, read back as after-images at commit time), plus
// create records carrying the full initial image and delete records
// carrying only the OID. Aborted transactions never reach the log, so
// recovery is redo-only and abort performs no log I/O at all — the
// design main-memory engines use to make durability cheap (Larson et
// al., "High-Performance Concurrency Control Mechanisms for Main-Memory
// Databases": log logical/projected deltas, batch the fsyncs).
//
// On-disk framing, little-endian:
//
//	┌─────────────┬─────────────┬───────────────────────────────┐
//	│ u32 payload │ u32 CRC-32C │ payload                       │
//	│     length  │ of payload  │                               │
//	└─────────────┴─────────────┴───────────────────────────────┘
//
//	payload: u8 type (=commit) · u64 txnID · u64 epoch · u32 nOps · ops
//	op:      u8 OpWrite  · uvarint OID · uvarint slot · value
//	         u8 OpDeltaI · uvarint OID · uvarint slot · varint delta
//	         u8 OpCreate · uvarint classID · uvarint OID ·
//	                       uvarint nSlots · values
//	         u8 OpDelete · uvarint OID
//	value:   u8 kind · varint int | u8 bool | uvarint len + bytes |
//	         uvarint ref OID
//
// OpDeltaI carries a slot write made under declared (escrow)
// commutativity as the transaction's net integer delta rather than an
// after-image: the live cell at commit time may contain a concurrent
// escrow writer's uncommitted contribution, which must not become
// durable through this record. Replay adds the delta, so the recovered
// value is exactly the sum of committed contributions regardless of how
// the writers interleaved.
//
// A record is valid iff its frame is complete and the CRC matches;
// recovery stops at the first invalid record of the final segment (a
// torn tail from a crash mid-write) and truncates it away.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/schema"
	"repro/internal/storage"
)

// Frame geometry.
const (
	frameHeaderSize = 8           // u32 length + u32 crc
	recCommit       = uint8(0x01) // the only record type: one committed txn
)

// maxRecordSize bounds one record's payload, enforced identically on
// the write path (Commit rejects, the transaction aborts) and the read
// path (recovery classifies larger frames as garbage). A variable only
// so tests can exercise the bound without allocating 256 MiB.
var maxRecordSize = 256 << 20

// Op kinds inside a commit record, exported so tests and tools can
// decode records with DecodeRecord.
const (
	OpWrite  = uint8(0x01) // TAV-projected field after-image
	OpCreate = uint8(0x02) // instance creation, full initial image
	OpDelete = uint8(0x03) // instance deletion
	OpDeltaI = uint8(0x04) // escrow integer delta (replay adds it)
)

// Payload offsets of the fixed commit-record header. The epoch is the
// transaction's multiversion commit epoch (0 when the transaction
// linked no version records): recovery takes the maximum over all
// replayed records to re-seed the epoch counter, so post-recovery
// commit epochs continue above everything the log ever stamped.
const (
	offType    = 0
	offTxnID   = 1
	offEpoch   = 9
	offNumOps  = 17
	hdrPayload = 21 // type + txnID + epoch + nOps
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendValue encodes one field value.
func appendValue(b []byte, v storage.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case storage.KInt:
		b = binary.AppendVarint(b, v.I)
	case storage.KBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case storage.KString:
		b = binary.AppendUvarint(b, uint64(len(v.S)))
		b = append(b, v.S...)
	case storage.KRef:
		b = binary.AppendUvarint(b, uint64(v.R))
	}
	return b
}

// decoder is a bounds-checked cursor over one payload (or checkpoint
// body). Methods set err instead of panicking, so a corrupt or torn
// record surfaces as a recoverable condition.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.fail("wal: truncated byte at offset %d", d.pos)
		return 0
	}
	v := d.b[d.pos]
	d.pos++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.pos+4 > len(d.b) {
		d.fail("wal: truncated u32 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.b) {
		d.fail("wal: truncated u64 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.fail("wal: bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.pos:])
	if n <= 0 {
		d.fail("wal: bad varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) value() storage.Value {
	kind := storage.ValueKind(d.u8())
	switch kind {
	case storage.KInt:
		return storage.IntV(d.varint())
	case storage.KBool:
		return storage.BoolV(d.u8() != 0)
	case storage.KString:
		n := d.uvarint()
		if d.err != nil {
			return storage.Value{}
		}
		// Compare in uint64 space: a near-2^64 length converted to int
		// would wrap negative and slip past a signed bounds check.
		if n > uint64(len(d.b)-d.pos) {
			d.fail("wal: truncated string of %d bytes at offset %d", n, d.pos)
			return storage.Value{}
		}
		s := string(d.b[d.pos : d.pos+int(n)])
		d.pos += int(n)
		return storage.StrV(s)
	case storage.KRef:
		return storage.RefV(storage.OID(d.uvarint()))
	}
	d.fail("wal: unknown value kind %d at offset %d", kind, d.pos-1)
	return storage.Value{}
}

// Record is one decoded commit record, materialised for tests and
// tooling (replay streams through applyRecord without building it).
type Record struct {
	TxnID uint64
	Epoch uint64
	Ops   []RecordOp
}

// RecordOp is one decoded op.
type RecordOp struct {
	Kind  uint8
	OID   storage.OID
	Class uint32          // OpCreate only
	Slot  int             // OpWrite, OpDeltaI
	Val   storage.Value   // OpWrite only
	Delta int64           // OpDeltaI only
	Slots []storage.Value // OpCreate only
}

// DecodeRecord parses one framed payload (without the 8-byte frame
// header) into a Record.
func DecodeRecord(payload []byte) (Record, error) {
	var rec Record
	err := walkRecord(payload, &rec.TxnID, &rec.Epoch, func(op RecordOp) error {
		rec.Ops = append(rec.Ops, op)
		return nil
	})
	return rec, err
}

// maxSlotIndex bounds a decoded slot number: anything past it is
// garbage, and letting the full uvarint range through would wrap
// negative on conversion to int.
const maxSlotIndex = 1 << 24

// decodeOp parses one op at the decoder's position. Shared by
// walkRecord (sequential replay, DecodeRecord) and the parallel replay
// workers, so both paths apply byte-identical semantics.
func decodeOp(d *decoder) RecordOp {
	var op RecordOp
	op.Kind = d.u8()
	switch op.Kind {
	case OpWrite:
		op.OID = storage.OID(d.uvarint())
		slot := d.uvarint()
		if slot > maxSlotIndex {
			d.fail("wal: write slot %d out of range", slot)
			break
		}
		op.Slot = int(slot)
		op.Val = d.value()
	case OpDeltaI:
		op.OID = storage.OID(d.uvarint())
		slot := d.uvarint()
		if slot > maxSlotIndex {
			d.fail("wal: delta slot %d out of range", slot)
			break
		}
		op.Slot = int(slot)
		op.Delta = d.varint()
	case OpCreate:
		op.Class = uint32(d.uvarint())
		op.OID = storage.OID(d.uvarint())
		ns := d.uvarint()
		if d.err != nil {
			break
		}
		if ns > uint64(len(d.b)-d.pos) {
			d.fail("wal: create claims %d slots with %d bytes left", ns, len(d.b)-d.pos)
			break
		}
		op.Slots = make([]storage.Value, 0, ns)
		for j := uint64(0); j < ns && d.err == nil; j++ {
			op.Slots = append(op.Slots, d.value())
		}
	case OpDelete:
		op.OID = storage.OID(d.uvarint())
	default:
		d.fail("wal: unknown op kind %d", op.Kind)
	}
	return op
}

// skipValue advances past one encoded value without materializing it
// (no string allocation) — the partitioning scan of parallel replay.
func (d *decoder) skipValue() {
	kind := storage.ValueKind(d.u8())
	switch kind {
	case storage.KInt:
		d.varint()
	case storage.KBool:
		d.u8()
	case storage.KString:
		n := d.uvarint()
		if d.err != nil {
			return
		}
		if n > uint64(len(d.b)-d.pos) {
			d.fail("wal: truncated string of %d bytes at offset %d", n, d.pos)
			return
		}
		d.pos += int(n)
	case storage.KRef:
		d.uvarint()
	default:
		d.fail("wal: unknown value kind %d at offset %d", kind, d.pos-1)
	}
}

// skipOp advances past one op, returning only its routing key (kind and
// OID). The byte range it covered is [start, d.pos).
func (d *decoder) skipOp() (kind uint8, oid uint64) {
	kind = d.u8()
	switch kind {
	case OpWrite:
		oid = d.uvarint()
		if slot := d.uvarint(); slot > maxSlotIndex {
			d.fail("wal: write slot %d out of range", slot)
			return
		}
		d.skipValue()
	case OpDeltaI:
		oid = d.uvarint()
		if slot := d.uvarint(); slot > maxSlotIndex {
			d.fail("wal: delta slot %d out of range", slot)
			return
		}
		d.varint()
	case OpCreate:
		d.uvarint() // class
		oid = d.uvarint()
		ns := d.uvarint()
		if d.err != nil {
			return
		}
		if ns > uint64(len(d.b)-d.pos) {
			d.fail("wal: create claims %d slots with %d bytes left", ns, len(d.b)-d.pos)
			return
		}
		for j := uint64(0); j < ns && d.err == nil; j++ {
			d.skipValue()
		}
	case OpDelete:
		oid = d.uvarint()
	default:
		d.fail("wal: unknown op kind %d", kind)
	}
	return kind, oid
}

// walkRecord streams the ops of one commit payload through fn.
func walkRecord(payload []byte, txnID, epoch *uint64, fn func(RecordOp) error) error {
	d := decoder{b: payload}
	if typ := d.u8(); d.err == nil && typ != recCommit {
		return fmt.Errorf("wal: unknown record type %d", typ)
	}
	id := d.u64()
	if txnID != nil {
		*txnID = id
	}
	e := d.u64()
	if epoch != nil {
		*epoch = e
	}
	n := d.u32()
	// Every op costs at least two bytes, so an op count beyond the
	// payload size is garbage. Rejecting it up front (rather than at the
	// first truncated op) also keeps the claimed count a trustworthy
	// upper bound for the replay OID budget below.
	if uint64(n) > uint64(len(payload)) {
		return fmt.Errorf("wal: record claims %d ops in %d bytes", n, len(payload))
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		op := decodeOp(&d)
		if d.err != nil {
			break
		}
		if err := fn(op); err != nil {
			return err
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.pos != len(d.b) {
		return fmt.Errorf("wal: %d trailing bytes after record", len(d.b)-d.pos)
	}
	return nil
}

// kindMatches reports whether a decoded value kind fits a field type —
// the replay-side counterpart of the store's create-time kind check,
// catching type drift a schema edit could smuggle past the
// fingerprint-compatible paths.
func kindMatches(t schema.FieldType, k storage.ValueKind) bool {
	switch t {
	case schema.TInt:
		return k == storage.KInt
	case schema.TBool:
		return k == storage.KBool
	case schema.TString:
		return k == storage.KString
	case schema.TRef:
		return k == storage.KRef
	}
	return false
}

// applyOp replays one decoded op into the store. Creates overwrite an
// already-live instance with the same image, writes to a missing
// instance (possible only when a later delete already ran, i.e. during
// a second replay of the same log) are skipped, deletes of missing OIDs
// are no-ops — so image-carrying ops tolerate re-replay. OpDeltaI does
// NOT: adding a delta twice double-counts, which is fine because
// recovery applies each log segment exactly once per pass (segments at
// or below the checkpoint base are never replayed over the checkpoint
// image that already contains them — see checkpoint.go). Ops on
// different OIDs commute, which is what lets recovery partition them
// across workers; delta ops additionally commute with each other on the
// same slot, so per-OID log order is more than strong enough.
//
// maxOID is the replay OID budget: the highest OID a non-corrupt log
// could legitimately name (checkpoint watermark + every op the
// segments claim, since each create allocates one sequential OID).
// Ops beyond it are rejected — the store's page directory is dense, so
// letting a corrupt record name OID 2⁵⁰ would allocate the directory
// to match before any type check could object.
func applyOp(st *storage.Store, sch *schema.Schema, op RecordOp, maxOID uint64) error {
	if uint64(op.OID) > maxOID {
		return fmt.Errorf("wal: op names OID %d beyond the replayable bound %d", op.OID, maxOID)
	}
	switch op.Kind {
	case OpWrite:
		st.EnsureOID(op.OID)
		if in, ok := st.Get(op.OID); ok {
			if op.Slot >= in.Class.NumSlots() {
				return fmt.Errorf("wal: write to slot %d of %s#%d (has %d)",
					op.Slot, in.Class.Name, op.OID, in.Class.NumSlots())
			}
			if f := in.Class.Fields[op.Slot]; !kindMatches(f.Type, op.Val.Kind) {
				return fmt.Errorf("wal: write of %s into %s field %s of %s#%d",
					op.Val, f.Type, f.Name, in.Class.Name, op.OID)
			}
			in.Set(op.Slot, op.Val)
		}
	case OpDeltaI:
		st.EnsureOID(op.OID)
		if in, ok := st.Get(op.OID); ok {
			if op.Slot >= in.Class.NumSlots() {
				return fmt.Errorf("wal: delta to slot %d of %s#%d (has %d)",
					op.Slot, in.Class.Name, op.OID, in.Class.NumSlots())
			}
			if f := in.Class.Fields[op.Slot]; f.Type != schema.TInt {
				return fmt.Errorf("wal: integer delta into %s field %s of %s#%d",
					f.Type, f.Name, in.Class.Name, op.OID)
			}
			in.AddInt(op.Slot, op.Delta)
		}
	case OpCreate:
		cls := sch.ClassByID(op.Class)
		if cls == nil {
			return fmt.Errorf("wal: create references unknown class id %d", op.Class)
		}
		if _, err := st.Install(cls, op.OID, op.Slots); err != nil {
			return err
		}
	case OpDelete:
		st.EnsureOID(op.OID)
		st.Delete(op.OID) //nolint:errcheck // missing OID is a no-op on replay
	}
	return nil
}

// applyRecord replays one commit payload into the store, sequentially,
// returning the op count and the record's commit epoch.
func applyRecord(st *storage.Store, sch *schema.Schema, payload []byte, maxOID uint64) (ops int, epoch uint64, err error) {
	err = walkRecord(payload, nil, &epoch, func(op RecordOp) error {
		if err := applyOp(st, sch, op, maxOID); err != nil {
			return err
		}
		ops++
		return nil
	})
	return ops, epoch, err
}
