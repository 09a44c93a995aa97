package main

import (
	"math"
	"slices"
	"sort"
)

// A metric is one named measurement of a run. N is the number of
// windows, repeats or samples the value summarises and Spread their
// inter-quartile range as a share of the median (0 when N < 2), so a
// reader can tell a steady number from a lucky one.
type metric struct {
	Name   string
	Unit   string
	Value  float64
	N      int
	Spread float64
}

// median returns the middle value (mean of the two middle values for an
// even count). The input is not modified. One stalled window among ten
// moves a mean by a tenth of the stall; it does not move the median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(values, n=4) — the "exclusive" method,
// positions (n+1)/4 and 3(n+1)/4 with linear interpolation — because
// that is what the driver computes on the values this program prints.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quartile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrSpread is (q3 - q1) / median: the steadiness figure the driver
// holds against each metric's bound.
func iqrSpread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// medianMetric summarises equal windows or repeats by their median.
func medianMetric(name, unit string, xs []float64) metric {
	return metric{Name: name, Unit: unit, Value: median(xs), N: len(xs), Spread: iqrSpread(xs)}
}

// samples is one worker's preallocated latency record. add never
// allocates; when the buffer is full further samples are counted as
// dropped rather than reallocating inside the timed phase.
type samples struct {
	v       []int64
	dropped int
}

// newSamples allocates and touches the whole buffer, so that its pages
// are resident before the timed phase and the process's peak memory
// does not depend on whether the allocator handed out fresh pages.
func newSamples(capacity int) *samples {
	v := make([]int64, capacity)
	clear(v)
	return &samples{v: v[:0]}
}

func (s *samples) add(ns int64) {
	if len(s.v) < cap(s.v) {
		s.v = append(s.v, ns)
		return
	}
	s.dropped++
}

// mergeSorted concatenates the workers' samples and sorts them once, at
// the end of the phase.
func mergeSorted(parts ...[]int64) []int64 {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]int64, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.Sort(out)
	return out
}

// quantileSorted returns the exact q-quantile of sorted samples by the
// nearest-rank rule (the smallest sample with at least q of the samples
// at or below it). No buckets: the value returned was measured.
func quantileSorted(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
