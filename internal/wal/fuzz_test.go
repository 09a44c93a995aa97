package wal

import (
	"os"
	"testing"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

// frameBytes wraps an arbitrary payload in a valid frame (length +
// CRC), so the fuzzer reaches the record decoder instead of bouncing
// off the checksum.
func frameBytes(payload []byte) []byte {
	out := make([]byte, codec.HeaderSize, codec.HeaderSize+len(payload))
	codec.Seal(out, payload, len(payload)) //nolint:errcheck // the bound is the payload itself
	return append(out, payload...)
}

// fuzzOpen writes data as segment 1 of a fresh directory and opens it.
// Open must never panic: it replays what is valid, truncates a torn
// tail, or fail-stops with an error. When it succeeds, the truncated
// log must reopen cleanly (recovery converged).
func fuzzOpen(t *testing.T, data []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	l, info, err := Open(dir, st, Options{})
	if err != nil {
		return // fail-stop on garbage is a valid outcome
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close after successful open: %v", err)
	}
	st2 := newTestStore(t)
	l2, info2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatalf("reopen after successful open: %v", err)
	}
	defer l2.Close()
	if info2.TornTailBytes != 0 {
		t.Fatalf("second recovery still torn (%d bytes) after first truncated %d",
			info2.TornTailBytes, info.TornTailBytes)
	}
	if info2.Records != info.Records {
		t.Fatalf("second recovery applied %d records, first %d", info2.Records, info.Records)
	}
}

// FuzzWALRecord feeds arbitrary bytes to recovery, both as raw segment
// content (exercises framing, CRC, torn-tail truncation) and wrapped in
// a valid frame (exercises the record decoder and apply against
// CRC-clean garbage). The invariant is the WAL contract:
// wal.Open never panics — it replays, truncates the torn tail, or
// fail-stops.
func FuzzWALRecord(f *testing.F) {
	// Seed with well-formed records so mutation explores the decoder.
	sch, err := schema.FromSource(testSchema)
	if err != nil {
		f.Fatal(err)
	}
	cls := sch.Class("item").ID
	rec := AppendRecord(nil, &Record{TxnID: 7, Ops: []RecordOp{
		{Kind: OpCreate, Class: cls, OID: 1, Slots: []storage.Value{
			storage.IntV(42), storage.IntV(-1), storage.StrV("hello"), storage.BoolV(true), storage.RefV(1),
		}},
		{Kind: OpWrite, OID: 1, Slot: 0, Val: storage.IntV(9)},
		{Kind: OpDelete, OID: 1},
	}})

	lease := appendLease(nil, 2) // covers a create of OID 3 in a 1-op record
	create3 := AppendRecord(nil, &Record{TxnID: 8, Ops: []RecordOp{
		{Kind: OpCreate, Class: cls, OID: 3, Slots: []storage.Value{
			storage.IntV(1), storage.IntV(2), storage.StrV(""), storage.BoolV(false), storage.RefV(0),
		}},
	}})

	f.Add(rec)
	f.Add(frameBytes(rec))
	f.Add(lease[codec.HeaderSize:])                                   // a lease payload, framed by the second pass
	f.Add(append(append([]byte{}, lease...), frameBytes(create3)...)) // lease, then the record it covers
	f.Add(frameBytes(rec)[:11])                                       // torn frame
	f.Add([]byte{})                                                   // empty segment
	f.Add([]byte{1, 2, 3, 4, 5})                                      // garbage header

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOpen(t, data)             // raw segment bytes
		fuzzOpen(t, frameBytes(data)) // CRC-valid frame around the bytes
	})
}
