package wal

// Parallel recovery. Replay is embarrassingly parallel across
// instances: two ops touching different OIDs commute (creates and
// deletes maintain disjoint extent entries under the per-class extent
// latch, writes land on disjoint instances), while ops on one OID —
// create, then writes, then perhaps delete — must apply in log order.
// So the replayer scans each segment twice. The first pass validates
// the frames (length, CRC, torn tail — the cheap part) and sums the
// replay OID budget. The second walks the valid frames again and
// partitions the ops of each record by a hash of their OID into
// per-worker buckets; every replayChunkOps ops it hands the buckets to
// GOMAXPROCS goroutines and waits for them. A chunk is fully applied
// before the next one is partitioned, and every bucket preserves log
// order for the OIDs it owns, so the apply rules (skip ops on missing
// instances, overwrite re-created images, add deltas) stay
// byte-identical to sequential replay. The buckets are reused, so
// replay's scratch is O(chunk), not O(segment): the segment bytes and
// the store it rebuilds are all it holds.
//
// The merge is made deterministic by normalization rather than by
// ordering the workers: after the last segment, every class extent is
// sorted by OID (storage.SortExtents), so scan order and checkpoint
// bytes come out the same whether replay ran on one goroutine or
// sixteen — the "deterministic per-extent merge".

import (
	"encoding/binary"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

// minParallelReplayOps is the per-segment budget (claimed ops plus
// lease raises) below which the partitioning overhead is not worth
// paying and replay stays sequential. A variable so tests can force the
// parallel path on small deterministic workloads.
var minParallelReplayOps = 4096

// replayChunkOps is how many ops parallel replay partitions before it
// applies them. A variable so tests can force chunk boundaries on small
// workloads.
var replayChunkOps = 1 << 16

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
	maxOID  uint64    // replay OID budget; grows with each segment's claims
	buckets [][]opRef // per-worker op lists of the current chunk, reused
	queued  int       // ops in the buckets
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

// scanFrames walks the framed records of one segment and returns end,
// the length of its valid prefix (len(data) when the whole segment is
// valid; otherwise the offset of an incomplete frame or CRC mismatch —
// the torn tail of a crash), and budget, how far the valid frames raise
// the replay OID budget (budgetRaise).
func scanFrames(data []byte) (end int64, budget uint64) {
	pos := 0
	for {
		rest := data[pos:]
		if len(rest) < codec.HeaderSize {
			return int64(pos), budget // the end, or a torn frame header
		}
		size, err := codec.Size(rest, maxRecordSize)
		if err != nil || size > len(rest)-codec.HeaderSize {
			return int64(pos), budget // torn or garbage length
		}
		payload := rest[codec.HeaderSize : codec.HeaderSize+size]
		if codec.Verify(rest, payload) != nil {
			return int64(pos), budget // torn payload
		}
		budget += budgetRaise(payload)
		pos += codec.HeaderSize + size
	}
}

// frames yields the offset and payload of every frame of data, a
// prefix scanFrames found valid.
func frames(data []byte) iter.Seq2[int64, []byte] {
	return func(yield func(int64, []byte) bool) {
		for pos := 0; pos < len(data); {
			start := pos + codec.HeaderSize
			end := start + int(binary.LittleEndian.Uint32(data[pos:]))
			if !yield(int64(pos), data[start:end]) {
				return
			}
			pos = end
		}
	}
}

// segment replays one segment's bytes into the store. It returns the
// number of commit records applied and tornAt: -1 when the whole
// segment is valid, otherwise the offset at which its valid prefix
// ends. Parallel and sequential replay of the same bytes produce the
// same store state (extent order is normalized afterwards by
// SortExtents, which the caller runs once after the final segment).
func (r *replayer) segment(data []byte) (records int, tornAt int64, err error) {
	end, budget := scanFrames(data)
	tornAt = -1
	if end < int64(len(data)) {
		tornAt = end
	}
	// Each claimed op could legitimately be one create, each allocating
	// one sequential OID, and each lease covers OIDs allocated without
	// reaching the log — so this segment can name OIDs at most that far
	// above what the store has seen.
	r.maxOID += budget
	parallel := r.workers > 1 && budget >= uint64(minParallelReplayOps)
	if parallel && r.buckets == nil {
		r.buckets = make([][]opRef, r.workers)
	}
	for off, payload := range frames(data[:end]) {
		if lease, err := isLease(payload); lease || err != nil {
			if err != nil {
				return records, tornAt, fmt.Errorf("at offset %d: %w", off, err)
			}
			continue
		}
		if parallel {
			err = r.partition(data, off, payload)
		} else if err = applyRecord(r.st, r.sch, payload, r.maxOID); err != nil {
			err = fmt.Errorf("at offset %d: %w", off, err)
		}
		if err != nil {
			return records, tornAt, err
		}
		records++
	}
	if parallel {
		if err := r.apply(data); err != nil {
			return records, tornAt, err
		}
	}
	return records, tornAt, nil
}

// partition routes the ops of the record framed at off to the bucket
// of the worker owning their OID, in log order, and applies the
// buckets whenever they hold a chunk.
func (r *replayer) partition(data []byte, off int64, payload []byte) error {
	base := off + codec.HeaderSize
	var applyErr error
	_, err := walkRecord(payload, false, func(op RecordOp, start, end int) error {
		w := oidHash(uint64(op.OID)) % uint64(r.workers)
		r.buckets[w] = append(r.buckets[w], opRef{off: base + int64(start), end: base + int64(end)})
		if r.queued++; r.queued >= replayChunkOps {
			applyErr = r.apply(data)
		}
		return applyErr
	})
	if err != nil && applyErr == nil {
		err = fmt.Errorf("at offset %d: %w", off, err) // a decode error, not an apply error
	}
	return err
}

// apply runs the queued chunk on the workers, waits for them and
// empties the buckets.
func (r *replayer) apply(data []byte) error {
	var (
		wg       sync.WaitGroup
		failed   atomic.Bool
		firstErr atomic.Value // error
	)
	for w, ops := range r.buckets {
		if len(ops) == 0 {
			continue
		}
		r.buckets[w] = ops[:0]
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
					// Unreachable after a clean partition, but a worker
					// must never trust that.
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
	r.queued = 0
	if failed.Load() {
		return firstErr.Load().(error)
	}
	return nil
}
