package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
)

// TestReplayScratchBytesFlat pins parallel replay's scratch to O(chunk):
// replaying twice the records into the same instances must not allocate
// twice the bytes. The segments hold int writes and deltas to
// pre-installed instances, whose apply allocates nothing, so what the
// replayer allocates is its own scratch. Bytes, not counts: a chunk may
// start goroutines.
func TestReplayScratchBytesFlat(t *testing.T) {
	const instances = 1024
	replayBytes := func(records int) uint64 {
		st := newTestStore(t)
		cls := st.Schema().Class("item")
		for range instances {
			if _, err := st.NewInstance(cls); err != nil {
				t.Fatal(err)
			}
		}
		var data []byte
		for i := range records {
			oid := storage.OID(1 + i%instances)
			op := RecordOp{Kind: OpWrite, OID: oid, Slot: 0, Val: storage.IntV(int64(i))}
			if i%2 == 1 {
				op = RecordOp{Kind: OpDeltaI, OID: oid, Slot: 1, Delta: 3}
			}
			data = append(data, frameBytes(AppendRecord(nil, &Record{TxnID: uint64(i + 1), Ops: []RecordOp{op}}))...)
		}
		r := newReplayer(st, st.Schema(), 2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, tornAt, err := r.segment(data)
		runtime.ReadMemStats(&after)
		if err != nil || n != records || tornAt != -1 {
			t.Fatalf("replayed %d of %d records, torn at %d: %v", n, records, tornAt, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := replayBytes(200_000), replayBytes(400_000)
	t.Logf("replay allocated %d bytes for 200k records, %d for 400k", small, large)
	if large > small+small/4+64<<10 {
		t.Errorf("replaying 400k records allocated %d bytes, 200k records %d: scratch grows with the segment", large, small)
	}
}

// Chunk boundaries fall inside records too, and per-OID log order must
// survive them: records that create an instance, write and add to it,
// and delete an older one replay to the same store on any chunk size.
func TestReplayChunksMatchSequential(t *testing.T) {
	cls := newTestStore(t).Schema().Class("item").ID
	var data []byte
	for k := uint64(1); k <= 600; k++ {
		ops := []RecordOp{
			{Kind: OpCreate, Class: cls, OID: storage.OID(k), Slots: []storage.Value{
				storage.IntV(int64(k)), storage.IntV(0), storage.StrV("x"), storage.BoolV(false), storage.RefV(0),
			}},
			{Kind: OpWrite, OID: storage.OID(k), Slot: 0, Val: storage.IntV(int64(2 * k))},
			{Kind: OpDeltaI, OID: storage.OID(k), Slot: 1, Delta: int64(k)},
			{Kind: OpDeltaI, OID: storage.OID(1 + k/2), Slot: 1, Delta: 1},
		}
		if k%5 == 0 {
			ops = append(ops, RecordOp{Kind: OpDelete, OID: storage.OID(k - 3)})
		}
		data = append(data, frameBytes(AppendRecord(nil, &Record{TxnID: k, Ops: ops}))...)
	}
	replay := func(workers int) *storage.Store {
		st := newTestStore(t)
		if n, _, err := newReplayer(st, st.Schema(), workers).segment(data); err != nil || n != 600 {
			t.Fatalf("workers=%d: replayed %d records: %v", workers, n, err)
		}
		st.SortExtents()
		return st
	}
	oldMin, oldChunk := minParallelReplayOps, replayChunkOps
	defer func() { minParallelReplayOps, replayChunkOps = oldMin, oldChunk }()
	minParallelReplayOps = 1
	want := replay(1)
	for _, chunk := range []int{1, 3, 7, oldChunk} {
		replayChunkOps = chunk
		for _, workers := range []int{2, 4} {
			sameStore(t, fmt.Sprintf("chunk=%d workers=%d", chunk, workers), replay(workers), want)
		}
	}
}

// A lease covers OIDs that were allocated without a record, by at most
// one page each; a malformed one is refused, and neither kind counts as
// a record.
func TestReplayLeases(t *testing.T) {
	cls := newTestStore(t).Schema().Class("item").ID
	create := func(oid storage.OID) []byte {
		return frameBytes(AppendRecord(nil, &Record{TxnID: 1, Ops: []RecordOp{
			{Kind: OpCreate, Class: cls, OID: oid, Slots: []storage.Value{
				storage.IntV(1), storage.IntV(2), storage.StrV(""), storage.BoolV(false), storage.RefV(0),
			}},
		}}))
	}
	lease := func(raise uint32) []byte {
		return frameBytes(binary.LittleEndian.AppendUint32([]byte{recLease}, raise))
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"covered", cat(appendLease(nil, 9), create(10)), ""},
		{"over pages", cat(appendLease(nil, 2*leasePage), create(2*leasePage+1)), ""},
		{"uncovered", cat(appendLease(nil, 8), create(10)), "beyond the replayable bound 9"},
		{"raise beyond a page", cat(lease(leasePage+1), create(10)), "outside (0, 4096]"},
		{"zero raise", cat(lease(0), create(1)), "outside (0, 4096]"},
		{"wrong length", cat(frameBytes([]byte{recLease, 1, 0, 0, 0, 0}), create(1)), "6-byte lease"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newTestStore(t)
			n, _, err := newReplayer(st, st.Schema(), 1).segment(tc.data)
			if tc.wantErr == "" {
				if err != nil || n != 1 {
					t.Fatalf("replayed %d records: %v; want the one record", n, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// The writer leases per record, not per batch: a record's own
// successors in the batch may be torn off, and their ops must not be
// what covers its OIDs. Four creations abort, the fifth commits, and a
// second record in the same Write rewrites every slot of it; a crash
// tears the Write after the first record.
func TestRecoveryLeasesCoverTornBatch(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	cls := st.Schema().Class("item")
	f, err := osFS{}.OpenFile(segmentPath(dir, 1), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l := &Log{dir: dir, st: st, fs: osFS{}, f: f, seq: 1} // no writer goroutine: the test is the writer
	l.commits.New = func() any { return &commit{l: l, done: make(chan error, 1)} }
	var in *storage.Instance
	for range 5 {
		if in, err = st.NewInstance(cls); err != nil {
			t.Fatal(err)
		}
	}
	create := l.BeginCommit(1)
	create.Create(cls.ID, uint64(in.OID), in)
	rewrite := l.BeginCommit(2)
	for slot := range cls.NumSlots() {
		rewrite.Write(uint64(in.OID), slot, in.Get(slot))
	}
	for _, c := range []*commit{create, rewrite} { // what Submit does before it enqueues
		payload := c.buf[codec.HeaderSize:]
		binary.LittleEndian.PutUint32(payload[offNumOps:], c.ops)
		if err := codec.Seal(c.buf, payload, maxRecordSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.writeBatch([]*commit{create, rewrite}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	crash := t.TempDir()
	if err := os.WriteFile(segmentPath(crash, 1), data[:len(data)-len(rewrite.buf)], 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := newTestStore(t)
	rl, info, err := Open(crash, recovered, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if _, ok := recovered.Get(in.OID); !ok || info.Records != 1 {
		t.Fatalf("recovered %d records, #%d present: %v; want the create alone", info.Records, in.OID, ok)
	}
}
