package codec_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/codec"
	"repro/internal/serv"
	"repro/internal/wal"
)

// fields decodes data as a run of tagged fields — a tag byte choosing
// the reader, then one field — and re-encodes what it read.
func fields(data []byte) ([]byte, error) {
	d := codec.NewDecoder(data)
	var out []byte
	for d.Len() > 0 && d.Err() == nil {
		tag := d.U8()
		out = append(out, tag)
		switch tag % 8 {
		case 0:
			out = append(out, d.U8())
		case 1:
			out = binary.LittleEndian.AppendUint32(out, d.U32())
		case 2:
			out = binary.LittleEndian.AppendUint64(out, d.U64())
		case 3:
			out = binary.AppendUvarint(out, d.Uvarint())
		case 4:
			out = binary.AppendVarint(out, d.Varint())
		case 5:
			out = codec.AppendStr(out, d.Str())
		case 6:
			if d.Bool() {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case 7:
			out = codec.AppendValue(out, d.Value())
		}
	}
	return out, d.Finish()
}

// FuzzCodec feeds the same bytes to every decoder over the codec: the
// Decoder itself, a request and a response through serv, a commit
// record through wal, and a frame header. None may panic, and whatever
// decodes must re-encode to the same bytes — a decoder accepts exactly
// what its encoder writes, so no two encodings mean the same thing.
func FuzzCodec(f *testing.F) {
	for _, e := range readGolden(f) {
		payload := e.data[codec.HeaderSize:]
		if e.name == "checkpoint" {
			payload = e.data[len("FAVWCKP3") : len(e.data)-4]
		}
		f.Add(payload)
		f.Add(e.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := fields(data); err == nil && !bytes.Equal(out, data) {
			t.Errorf("fields re-encode to %x", out)
		}

		// SkipValue walks exactly as far as Value and fails alike.
		vals := codec.NewDecoder(data)
		skip := codec.NewDecoder(data)
		var out []byte
		for vals.Len() > 0 && vals.Err() == nil {
			out = codec.AppendValue(out, vals.Value())
			skip.SkipValue()
		}
		if (vals.Err() == nil) != (skip.Err() == nil) || vals.Pos() != skip.Pos() {
			t.Errorf("Value stops at %d (%v), SkipValue at %d (%v)", vals.Pos(), vals.Err(), skip.Pos(), skip.Err())
		}
		if vals.Err() == nil && !bytes.Equal(out, data) {
			t.Errorf("values re-encode to %x", out)
		}

		var req serv.Request
		if serv.DecodeRequest(data, &req) == nil {
			if out, err := serv.AppendRequest(nil, &req); err != nil || !bytes.Equal(out, data) {
				t.Errorf("request %+v re-encodes to %x (%v)", req, out, err)
			}
		}
		for _, isStats := range []bool{false, true} {
			var resp serv.Response
			if serv.DecodeResponse(data, &resp, isStats) == nil {
				if out, err := serv.AppendResponse(nil, &resp); err != nil || !bytes.Equal(out, data) {
					t.Errorf("response %+v re-encodes to %x (%v)", resp, out, err)
				}
			}
		}

		if rec, err := wal.DecodeRecord(data); err == nil {
			if out := wal.AppendRecord(nil, &rec); !bytes.Equal(out, data) {
				t.Errorf("record %+v re-encodes to %x", rec, out)
			}
		}

		if len(data) >= codec.HeaderSize {
			n, err := codec.Size(data, len(data)-codec.HeaderSize)
			if err == nil && codec.Verify(data, data[codec.HeaderSize:codec.HeaderSize+n]) == nil {
				var hdr [codec.HeaderSize]byte
				if err := codec.Seal(hdr[:], data[codec.HeaderSize:codec.HeaderSize+n], n); err != nil || !bytes.Equal(hdr[:], data[:codec.HeaderSize]) {
					t.Errorf("frame header %x reseals to %x (%v)", data[:codec.HeaderSize], hdr, err)
				}
			}
		}
	})
}
