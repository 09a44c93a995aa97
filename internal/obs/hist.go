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
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	histSubBits = 3 // sub-buckets per octave: 2^3 = 8, ~±6% resolution
	histSub     = 1 << histSubBits
	histBuckets = histSub + (64-histSubBits)*histSub // small-exact + octaves
)

// Hist is a concurrent log-bucketed histogram over non-negative uint64
// values (8 sub-buckets per power of two, ~±6% value resolution). The
// zero value is ready to use; Observe and Record are wait-free — three
// atomic adds, no locks — and Quantile/Sum/Count snapshot without
// stopping writers. Durations are recorded as nanoseconds; the registry
// scales them to seconds at export time.
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
func (h *Hist) Observe(v uint64) {
	h.buckets[histBucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
}

// Record adds one measured duration as nanoseconds (negative durations
// clamp to zero).
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values (nanoseconds for Record).
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Quantile returns the q-th (0 < q ≤ 1) value quantile, or 0 when the
// histogram is empty. Resolution is the bucket width (~±6%).
func (h *Hist) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
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
