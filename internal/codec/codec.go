// Package codec is the one frame format and value codec under the redo
// log (internal/wal) and the wire protocol (internal/serv). Section 3
// of the paper uses the access vectors as projection patterns for the
// modified parts of instances; here those parts are (OID, slot, value)
// ops, and the same values travel in a WAL commit record and in a
// request or response, inside the same frame.
//
// Frame, little-endian:
//
//	┌─────────────┬─────────────┬─────────┐
//	│ u32 payload │ u32 CRC-32C │ payload │
//	│     length  │ of payload  │         │
//	└─────────────┴─────────────┴─────────┘
//
// A writer refuses to seal a payload longer than the bound its reader
// enforces; a reader checks the length against that bound before it
// reads the payload, and the checksum before it decodes a byte of it.
//
// Value, the unit inside every payload (kinds are storage.ValueKind):
//
//	u8 kind · 0 int:    varint
//	          1 bool:   u8 0 or 1
//	          2 string: uvarint len · bytes
//	          3 ref:    uvarint OID
//
// Decoding is strict — varints must be minimal and a bool byte 0 or 1 —
// so every value has exactly one encoding and whatever decodes
// re-encodes to the same bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// HeaderSize is the length of a frame header.
const HeaderSize = 8

var table = crc32.MakeTable(crc32.Castagnoli)

var errChecksum = errors.New("codec: checksum mismatch")

// Checksum returns the CRC-32C of b: the frame checksum, and the
// whole-file check of the WAL checkpoint.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Seal writes the header of a frame carrying payload into hdr. A
// payload longer than max is refused, and hdr is left alone.
func Seal(hdr, payload []byte, max int) error {
	if len(payload) > max {
		return fmt.Errorf("codec: %d-byte payload exceeds the %d-byte frame bound", len(payload), max)
	}
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], Checksum(payload))
	return nil
}

// Size returns the payload length hdr announces, or an error when it
// exceeds max.
func Size(hdr []byte, max int) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if int64(n) > int64(max) {
		return 0, fmt.Errorf("codec: %d-byte frame exceeds the %d-byte bound", n, max)
	}
	return int(n), nil
}

// Verify checks payload against the checksum hdr carries.
func Verify(hdr, payload []byte) error {
	if Checksum(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return errChecksum
	}
	return nil
}

// AppendStr appends s as uvarint length · bytes.
func AppendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendValue appends one encoded value.
func AppendValue(b []byte, v storage.Value) []byte {
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
		b = AppendStr(b, v.S)
	case storage.KRef:
		b = binary.AppendUvarint(b, uint64(v.R))
	}
	return b
}

// Decoder is a bounds-checked cursor over one payload. Its errors are
// sticky: the first malformed field sets Err, every later read returns
// a zero value without moving, so a caller reads a whole structure and
// checks once. Nothing panics on any input.
type Decoder struct {
	b   []byte
	pos int
	err error
}

// NewDecoder returns a decoder positioned at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Pos is the offset of the next unread byte.
func (d *Decoder) Pos() int { return d.pos }

// Len is the number of unread bytes.
func (d *Decoder) Len() int { return len(d.b) - d.pos }

// Err is the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Failf records a failure unless one is already recorded.
func (d *Decoder) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Finish returns Err, or an error when unread bytes remain.
func (d *Decoder) Finish() error {
	if d.err == nil && d.pos != len(d.b) {
		d.Failf("codec: %d trailing bytes at offset %d", len(d.b)-d.pos, d.pos)
	}
	return d.err
}

// take advances past n bytes and returns them, or fails.
func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.pos {
		d.Failf("codec: truncated %s at offset %d", what, d.pos)
		return nil
	}
	b := d.b[d.pos : d.pos+n]
	d.pos += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if b := d.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bool reads a u8 that must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Failf("codec: bool byte %d at offset %d", v, d.pos-1)
	}
	return v == 1
}

// Uvarint reads a minimally encoded uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	// A minimal encoding never ends in a zero byte, except zero itself.
	if n <= 0 || (n > 1 && d.b[d.pos+n-1] == 0) {
		d.Failf("codec: bad uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a minimally encoded zig-zag varint.
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// bytes reads a uvarint length and that many bytes, without copying.
func (d *Decoder) bytes() []byte {
	n := d.Uvarint()
	// Compare in uint64 space: a near-2^64 length converted to int would
	// wrap negative and slip past a signed bounds check.
	if d.err == nil && n > uint64(d.Len()) {
		d.Failf("codec: truncated string of %d bytes at offset %d", n, d.pos)
	}
	return d.take(int(n), "string")
}

// Str reads a string written by AppendStr.
func (d *Decoder) Str() string { return string(d.bytes()) }

// Value reads a value written by AppendValue.
func (d *Decoder) Value() storage.Value { return d.value(true) }

// SkipValue advances past one value without materialising it: a
// string costs no allocation.
func (d *Decoder) SkipValue() { d.value(false) }

func (d *Decoder) value(materialize bool) storage.Value {
	switch k := storage.ValueKind(d.U8()); k {
	case storage.KInt:
		return storage.IntV(d.Varint())
	case storage.KBool:
		return storage.BoolV(d.Bool())
	case storage.KString:
		s := d.bytes()
		if materialize {
			return storage.StrV(string(s))
		}
	case storage.KRef:
		return storage.RefV(storage.OID(d.Uvarint()))
	default:
		d.Failf("codec: unknown value kind %d at offset %d", k, d.pos-1)
	}
	return storage.Value{}
}
