package wal

// Parallel recovery. Replay is embarrassingly parallel across
// instances: two ops touching different OIDs commute (creates and
// deletes maintain disjoint extent entries under the per-class extent
// latch, writes land on disjoint instances), while ops on one OID —
// create, then writes, then perhaps delete — must apply in log order.
// So the replayer scans each segment sequentially (frame validation,
// CRC, torn-tail detection — the cheap part), partitions the ops of its
// valid records by a hash of their OID, and applies the partitions on
// GOMAXPROCS goroutines. Every partition preserves log order for
// the OIDs it owns, which keeps the apply rules (skip ops on missing
// instances, overwrite re-created images, add deltas) byte-identical to
// sequential replay.
//
// The merge is made deterministic by normalization rather than by
// ordering the workers: after the last segment, every class extent is
// sorted by OID (storage.SortExtents), so scan order and checkpoint
// bytes come out the same whether replay ran on one goroutine or
// sixteen — the "deterministic per-extent merge".

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

// minParallelReplayOps is the per-segment op count below which the
// partitioning overhead is not worth paying and replay stays
// sequential. A variable so tests can force the parallel path on small
// deterministic workloads.
var minParallelReplayOps = 4096

// opRef is one op's byte range within the segment being replayed.
type opRef struct {
	off, end int64
}

// replayer applies segments into a store, parallelizing across
// instances when a segment is large enough.
type replayer struct {
	st      *storage.Store
	sch     *schema.Schema
	workers int
	maxOID  uint64    // replay OID budget; grows with each segment's op count
	buckets [][]opRef // per-worker op lists, reused across segments
}

// newReplayer returns a replayer applying on the given number of
// goroutines; Open uses GOMAXPROCS.
func newReplayer(st *storage.Store, sch *schema.Schema, workers int) *replayer {
	return &replayer{st: st, sch: sch, workers: workers, maxOID: uint64(st.MaxOID())}
}

// oidHash spreads OIDs over workers (splitmix64 finalizer — OIDs are
// sequential, so without mixing every page of instances would land on
// one worker).
func oidHash(oid uint64) uint64 {
	x := oid + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// scanFrames walks the framed records of one segment and returns the
// valid payload ranges, the total op count their headers claim, and
// tornAt: -1 when the whole segment is valid, otherwise the byte offset
// at which the valid prefix ends (an incomplete frame or CRC mismatch —
// the torn tail of a crash).
func scanFrames(data []byte) (payloads []opRef, ops int64, tornAt int64) {
	pos := int64(0)
	for {
		rest := data[pos:]
		if len(rest) == 0 {
			return payloads, ops, -1
		}
		if len(rest) < codec.HeaderSize {
			return payloads, ops, pos // torn frame header
		}
		size, err := codec.Size(rest, maxRecordSize)
		if err != nil || size > len(rest)-codec.HeaderSize {
			return payloads, ops, pos // torn or garbage length
		}
		payload := rest[codec.HeaderSize : codec.HeaderSize+size]
		if codec.Verify(rest, payload) != nil {
			return payloads, ops, pos // torn payload
		}
		if len(payload) >= hdrPayload {
			// Clamp the claimed count to the payload size (every op costs
			// ≥ 2 bytes); walkRecord rejects records that lie higher, and
			// the clamped sum doubles as the replay OID budget.
			claimed := int64(binary.LittleEndian.Uint32(payload[offNumOps:]))
			if claimed > int64(len(payload)) {
				claimed = int64(len(payload))
			}
			ops += claimed
		}
		start := pos + codec.HeaderSize
		payloads = append(payloads, opRef{off: start, end: start + int64(size)})
		pos += codec.HeaderSize + int64(size)
	}
}

// segment replays one segment's bytes into the store. It returns the
// number of commit records applied and tornAt with the same contract as
// scanFrames. Parallel and sequential replay of the same bytes produce
// the same store state (extent order is normalized afterwards by
// SortExtents, which the caller runs once after the final segment).
func (r *replayer) segment(data []byte) (records int, tornAt int64, err error) {
	payloads, ops, tornAt := scanFrames(data)
	// Each claimed op could legitimately be one create, each allocating
	// one sequential OID — so this segment can name OIDs at most that
	// far above what the store has seen.
	r.maxOID += uint64(ops)
	if r.workers <= 1 || ops < int64(minParallelReplayOps) {
		for _, p := range payloads {
			if err := applyRecord(r.st, r.sch, data[p.off:p.end], r.maxOID); err != nil {
				return records, tornAt, fmt.Errorf("at offset %d: %w", p.off-codec.HeaderSize, err)
			}
			records++
		}
		return records, tornAt, nil
	}

	// Partition: one sequential skip-decode pass routes every op to the
	// worker owning its OID. Log order is preserved inside each bucket.
	if r.buckets == nil {
		r.buckets = make([][]opRef, r.workers)
	}
	for i := range r.buckets {
		r.buckets[i] = r.buckets[i][:0]
	}
	for _, p := range payloads {
		_, err := walkRecord(data[p.off:p.end], false, func(op RecordOp, off, end int) error {
			w := oidHash(uint64(op.OID)) % uint64(r.workers)
			r.buckets[w] = append(r.buckets[w], opRef{off: p.off + int64(off), end: p.off + int64(end)})
			return nil
		})
		if err != nil {
			return records, tornAt, fmt.Errorf("at offset %d: %w", p.off-codec.HeaderSize, err)
		}
		records++
	}

	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		firstErr atomic.Value // error
	)
	for w := 0; w < r.workers; w++ {
		ops := r.buckets[w]
		if len(ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(ops []opRef) {
			defer wg.Done()
			for _, o := range ops {
				if failed.Load() {
					return
				}
				d := codec.NewDecoder(data[o.off:o.end])
				op := decodeOp(&d, true)
				if err := d.Err(); err != nil {
					// Unreachable after a clean scan, but a worker must
					// never trust that.
					if failed.CompareAndSwap(false, true) {
						firstErr.Store(err)
					}
					return
				}
				if err := applyOp(r.st, r.sch, op, r.maxOID); err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr.Store(fmt.Errorf("at offset %d: %w", o.off, err))
					}
					return
				}
			}
		}(ops)
	}
	wg.Wait()
	if failed.Load() {
		return records, tornAt, firstErr.Load().(error)
	}
	return records, tornAt, nil
}
