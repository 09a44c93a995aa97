// Package obs is the engine's observability substrate: atomic counters,
// gauges, a lock-free log-bucketed histogram, a registry that renders
// Prometheus text exposition and expvar-style JSON without stopping
// writers, and a per-transaction flight recorder. Everything on a
// recording path is wait-free and allocation-free — one to three atomic
// adds per observation — so the instrumented engine keeps its zero
// allocs/op hot-path budget; only export and slow-transaction capture
// (cold paths by construction) allocate.
//
// The package sits at the bottom of the dependency graph: it imports
// only the standard library, so storage, lock, wal, txn and engine can
// all record into it without cycles.
package obs

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

const (
	histSubBits = 3 // sub-buckets per octave: 2^3 = 8, ~±6% resolution
	histSub     = 1 << histSubBits
	histBuckets = histSub + (64-histSubBits)*histSub // small-exact + octaves
)

// SampleEvery is the period of sampled timing (Sample, RecordSample).
const SampleEvery = 64

// Sample reports whether to time this event: true for a random 1 in
// SampleEvery, from math/rand/v2's per-thread generator (no state, no
// allocation). A tick instead would alias with fixed-shape workloads.
func Sample() bool { return rand.Uint32()%SampleEvery == 0 }

// SampleStart returns the start time of a Sample()d event, or the zero
// Time for an event that is only to be counted; pass it to Hist.Done.
func SampleStart() time.Time {
	if !Sample() {
		return time.Time{}
	}
	return time.Now()
}

// Hist is a concurrent log-bucketed histogram over non-negative uint64
// values (8 sub-buckets per power of two, ~±6% value resolution). The
// zero value is ready to use; Observe and Record are wait-free — three
// atomic adds, no locks — and Quantile/Sum/Count snapshot without
// stopping writers. Durations are recorded as nanoseconds; the registry
// scales them to seconds at export time.
//
// A sampled histogram counts every event but times only Sample()d ones:
// its Count is exact, its Sum and Quantile unbiased estimates.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// histBucketOf maps a value to its bucket index: values below histSub
// are exact, above that the top histSubBits mantissa bits select a
// sub-bucket within the value's octave.
func histBucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	mant := (v >> (uint(e) - histSubBits)) - histSub
	return histSub + (e-histSubBits)<<histSubBits + int(mant)
}

// histBucketMid returns a representative (midpoint) value for a bucket
// index — the inverse of histBucketOf up to bucket width.
func histBucketMid(idx int) uint64 {
	if idx < histSub {
		return uint64(idx)
	}
	k := idx - histSub
	e := k>>histSubBits + histSubBits
	mant := uint64(k & (histSub - 1))
	lo := (histSub + mant) << (uint(e) - histSubBits)
	return lo + (1<<(uint(e)-histSubBits))/2
}

// Observe adds one raw value (a batch size, a queue length, …).
func (h *Hist) Observe(v uint64) { h.add(v, 1) }

// Record adds one measured duration as nanoseconds (negative durations
// clamp to zero).
func (h *Hist) Record(d time.Duration) { h.add(uint64(max(d, 0)), 1) }

// RecordSample records a Sample()d event's duration like Record, but
// with weight SampleEvery in the buckets and the sum; it counts one.
func (h *Hist) RecordSample(d time.Duration) { h.add(uint64(max(d, 0)), SampleEvery) }

// Inc counts one untimed event of a sampled histogram.
func (h *Hist) Inc() { h.count.Add(1) }

// Done records one event begun at SampleStart: a sampled one with its
// latency (RecordSample), any other (a zero start) as a count (Inc).
func (h *Hist) Done(start time.Time) {
	if start.IsZero() {
		h.Inc()
		return
	}
	h.RecordSample(time.Since(start))
}

// add counts one event and records value v with weight w.
func (h *Hist) add(v uint64, w int64) {
	h.buckets[histBucketOf(v)].Add(w)
	h.count.Add(1)
	h.sum.Add(w * int64(v))
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values (nanoseconds for Record).
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Quantile returns the q-th (0 < q ≤ 1) value quantile, the nearest rank
// ⌈q·n⌉ over the bucket mass n, or 0 before the first recorded value.
// Resolution is the bucket width (~±6%).
func (h *Hist) Quantile(q float64) uint64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return histBucketMid(i)
		}
	}
	return histBucketMid(histBuckets - 1)
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; Add is one atomic add. Nothing resets a counter: a
// reader measures a phase by subtracting a reading taken before it.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
