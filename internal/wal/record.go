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
// A commit record is the payload of one frame of internal/codec (length
// and CRC-32C header; values encoded by codec.AppendValue); the only
// other frame is an OID lease (appendLease):
//
//	payload: u8 type (=commit) · u64 txnID · u32 nOps · ops
//	lease:   u8 type (=lease) · u32 raise
//	op:      u8 OpWrite  · uvarint OID · uvarint slot · value
//	         u8 OpDeltaI · uvarint OID · uvarint slot · varint delta
//	         u8 OpCreate · image
//	         u8 OpDelete · uvarint OID
//	image:   uvarint classID · uvarint OID · uvarint nSlots · values
//
// OpDeltaI carries a slot write made under declared (escrow)
// commutativity as the transaction's net integer delta rather than an
// after-image: the live cell at commit time may contain a concurrent
// escrow writer's uncommitted contribution, which must not become
// durable through this record. Replay adds the delta, so the recovered
// value is exactly the sum of committed contributions regardless of how
// the writers interleaved.
//
// The log knows nothing of multiversion epochs: they order commits in
// memory only, and replay links no version records. Records written
// while a commit record still carried its epoch have type 0x01 and are
// refused by name.
//
// A record is valid iff its frame is complete and the CRC matches;
// recovery stops at the first invalid record of the final segment (a
// torn tail from a crash mid-write) and truncates it away.
package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

// recCommit is the record type of one committed txn. recCommitV1 is
// the type of the earlier layout, whose header also held a u64 commit
// epoch; it is recognised only to be refused. recLease is not a record
// but an OID lease: see appendLease.
const (
	recCommit   = uint8(0x02)
	recCommitV1 = uint8(0x01)
	recLease    = uint8(0x03)
)

// A lease payload is u8 type (=lease) · u32 raise, and one lease raises
// the replay OID budget by at most leasePage: one storage page, so
// CRC-valid garbage still grows the page directory by at most one page
// per frame.
const (
	leaseSize = 5
	leasePage = 4096
)

// maxRecordSize bounds one record's payload, enforced identically on
// the write path (Submit rejects, the transaction aborts) and the read
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

// Payload offset of the op count and size of the fixed commit-record
// header (type + txnID + nOps).
const (
	offNumOps  = 9
	hdrPayload = 13
)

// appendHeader appends the fixed commit-record header.
func appendHeader(b []byte, txnID uint64, nOps uint32) []byte {
	b = append(b, recCommit)
	b = binary.LittleEndian.AppendUint64(b, txnID)
	return binary.LittleEndian.AppendUint32(b, nOps)
}

// appendLease appends framed leases raising the replay OID budget by
// raise, one per leasePage. The writer prepends them to a batch whose
// records name OIDs above what the log has covered so far: an aborted
// or retried creation, or one still in flight, allocates an OID without
// ever logging it, so later creates can outrun the ops the log claims.
// Leases are not commit records; replay only adds their raises to the
// budget.
func appendLease(b []byte, raise uint64) []byte {
	for raise > 0 {
		n := min(raise, leasePage)
		start := len(b)
		b = append(b, make([]byte, codec.HeaderSize)...)
		b = append(b, recLease)
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
		codec.Seal(b[start:], b[start+codec.HeaderSize:], maxRecordSize) //nolint:errcheck // 5 bytes
		raise -= n
	}
	return b
}

// isLease reports whether a frame's payload is a lease, with an error
// when it is one but malformed (a raise of zero or beyond one page, or
// the wrong length): CRC-clean garbage.
func isLease(payload []byte) (bool, error) {
	if len(payload) == 0 || payload[0] != recLease {
		return false, nil
	}
	if len(payload) != leaseSize {
		return true, fmt.Errorf("wal: %d-byte lease, want %d", len(payload), leaseSize)
	}
	if raise := binary.LittleEndian.Uint32(payload[1:]); raise == 0 || raise > leasePage {
		return true, fmt.Errorf("wal: lease raises the OID budget by %d, outside (0, %d]", raise, leasePage)
	}
	return true, nil
}

// budgetRaise returns how far one valid frame can raise the replay OID
// budget: a commit record's claimed op count, clamped to its payload
// size (every op costs ≥ 2 bytes; walkRecord rejects records that claim
// more), or a lease's raise, clamped to one page.
func budgetRaise(payload []byte) uint64 {
	switch {
	case len(payload) == leaseSize && payload[0] == recLease:
		return min(uint64(binary.LittleEndian.Uint32(payload[1:])), leasePage)
	case len(payload) >= hdrPayload:
		return min(uint64(binary.LittleEndian.Uint32(payload[offNumOps:])), uint64(len(payload)))
	}
	return 0
}

// appendImage appends an instance image: the body of an OpCreate op and
// of a checkpoint entry.
func appendImage(b []byte, classID uint32, oid uint64, vals []storage.Value) []byte {
	b = binary.AppendUvarint(b, uint64(classID))
	b = binary.AppendUvarint(b, oid)
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = codec.AppendValue(b, v)
	}
	return b
}

// appendOp appends one op: the only op encoder, under the commit
// builder and AppendRecord alike.
func appendOp(b []byte, op *RecordOp) []byte {
	b = append(b, op.Kind)
	switch op.Kind {
	case OpWrite:
		b = binary.AppendUvarint(b, uint64(op.OID))
		b = binary.AppendUvarint(b, uint64(op.Slot))
		b = codec.AppendValue(b, op.Val)
	case OpDeltaI:
		b = binary.AppendUvarint(b, uint64(op.OID))
		b = binary.AppendUvarint(b, uint64(op.Slot))
		b = binary.AppendVarint(b, op.Delta)
	case OpCreate:
		b = appendImage(b, op.Class, uint64(op.OID), op.Slots)
	case OpDelete:
		b = binary.AppendUvarint(b, uint64(op.OID))
	}
	return b
}

// Record is one decoded commit record, materialised for tests and
// tooling (replay streams through applyRecord without building it).
type Record struct {
	TxnID uint64
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
	var err error
	rec.TxnID, err = walkRecord(payload, true, func(op RecordOp, _, _ int) error {
		rec.Ops = append(rec.Ops, op)
		return nil
	})
	return rec, err
}

// AppendRecord appends the payload of rec: the inverse of DecodeRecord.
// A commit builds the same bytes op by op.
func AppendRecord(b []byte, rec *Record) []byte {
	b = appendHeader(b, rec.TxnID, uint32(len(rec.Ops)))
	for i := range rec.Ops {
		b = appendOp(b, &rec.Ops[i])
	}
	return b
}

// maxSlotIndex bounds a decoded slot number: anything past it is
// garbage, and letting the full uvarint range through would wrap
// negative on conversion to int.
const maxSlotIndex = 1 << 24

// decodeImage parses what appendImage wrote into op. Without
// materialize the values are only skipped; with it they are decoded
// into op.Slots' backing array, so a caller that keeps op across images
// decodes them all into one buffer.
func decodeImage(d *codec.Decoder, op *RecordOp, materialize bool) {
	class := d.Uvarint()
	if class > math.MaxUint32 {
		d.Failf("wal: class id %d out of range", class)
	}
	op.Class = uint32(class)
	op.OID = storage.OID(d.Uvarint())
	ns := d.Uvarint()
	if ns > uint64(d.Len()) {
		d.Failf("wal: image claims %d slots with %d bytes left", ns, d.Len())
		return
	}
	if materialize {
		op.Slots = slices.Grow(op.Slots[:0], int(ns))
	}
	for j := uint64(0); j < ns && d.Err() == nil; j++ {
		if materialize {
			op.Slots = append(op.Slots, d.Value())
		} else {
			d.SkipValue()
		}
	}
}

// decodeOp parses one op at the decoder's position. Without materialize
// it only routes: Kind and OID are set and the values are skipped, so
// the partition pass of parallel replay allocates no strings. Sequential
// replay, DecodeRecord and the parallel workers all decode through it.
func decodeOp(d *codec.Decoder, materialize bool) RecordOp {
	var op RecordOp
	op.Kind = d.U8()
	switch op.Kind {
	case OpWrite, OpDeltaI:
		op.OID = storage.OID(d.Uvarint())
		slot := d.Uvarint()
		if slot > maxSlotIndex {
			d.Failf("wal: slot %d out of range", slot)
			break
		}
		op.Slot = int(slot)
		switch {
		case op.Kind == OpDeltaI:
			op.Delta = d.Varint()
		case materialize:
			op.Val = d.Value()
		default:
			d.SkipValue()
		}
	case OpCreate:
		decodeImage(d, &op, materialize)
	case OpDelete:
		op.OID = storage.OID(d.Uvarint())
	default:
		d.Failf("wal: unknown op kind %d", op.Kind)
	}
	return op
}

// walkRecord parses one commit payload and streams its ops, with each
// op's byte range within the payload, through fn; materialize is
// decodeOp's.
func walkRecord(payload []byte, materialize bool, fn func(op RecordOp, off, end int) error) (txnID uint64, err error) {
	d := codec.NewDecoder(payload)
	if typ := d.U8(); d.Err() == nil && typ != recCommit {
		if typ == recCommitV1 {
			return 0, fmt.Errorf("wal: record type %d is the older commit layout with an epoch; this build reads type %d", typ, recCommit)
		}
		return 0, fmt.Errorf("wal: unknown record type %d", typ)
	}
	txnID = d.U64()
	n := d.U32()
	// Every op costs at least two bytes, so an op count beyond the
	// payload size is garbage. Rejecting it up front (rather than at the
	// first truncated op) also keeps the claimed count a trustworthy
	// upper bound for the replay OID budget below.
	if uint64(n) > uint64(len(payload)) {
		return txnID, fmt.Errorf("wal: record claims %d ops in %d bytes", n, len(payload))
	}
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		start := d.Pos()
		op := decodeOp(&d, materialize)
		if d.Err() != nil {
			break
		}
		if err := fn(op, start, d.Pos()); err != nil {
			return txnID, err
		}
	}
	return txnID, d.Finish()
}

// applyOp replays one decoded op into the store. A create overwrites
// an already-live instance; a write, delta or delete naming a missing
// OID is skipped — the instance was deleted after the cut of the
// checkpoint under this tail, which therefore lacks it, and the tail's
// own delete follows. OpDeltaI adds, so it must apply exactly once:
// recovery replays each segment once, and never one at or below the
// checkpoint's base, whose cut already holds every such commit and no
// later one (see checkpoint.go). Ops on different OIDs commute, which
// is what lets recovery partition them across workers; delta ops
// additionally commute with each other on the same slot, so per-OID
// log order is more than strong enough.
//
// maxOID is the replay OID budget: the highest OID a non-corrupt log
// could legitimately name — the checkpoint watermark, plus every op the
// segments claim (each create allocates one sequential OID), plus the
// raises of the leases the writer logged for OIDs allocated without a
// record (appendLease). Ops beyond it are rejected — the store's page
// directory is dense, so letting a corrupt record name OID 2⁵⁰ would
// allocate the directory to match before any type check could object.
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
			// The store's create-time kind check, replay side: catches
			// type drift a schema edit could smuggle past the
			// fingerprint-compatible paths (Set would panic on it).
			if f := in.Class.Fields[op.Slot]; storage.KindOf(f.Type) != op.Val.Kind {
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

// applyRecord replays one commit payload into the store, sequentially.
func applyRecord(st *storage.Store, sch *schema.Schema, payload []byte, maxOID uint64) error {
	_, err := walkRecord(payload, true, func(op RecordOp, _, _ int) error {
		return applyOp(st, sch, op, maxOID)
	})
	return err
}
