package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStalledWindowDoesNotMoveMedian(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	stalled := append([]float64(nil), steady...)
	stalled[4] = 5 // one window lost to a stall
	if median(stalled) != median(steady) {
		t.Fatalf("median moved from %v to %v", median(steady), median(stalled))
	}
	mean := func(xs []float64) (m float64) {
		for _, x := range xs {
			m += x
		}
		return m / float64(len(xs))
	}
	if mean(stalled) > 0.95*mean(steady) {
		t.Fatalf("the mean should have shown the stall: %v vs %v", mean(stalled), mean(steady))
	}
}

// Reference values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
		{[]float64{5, 1}, 0, 6}, // python extrapolates below the minimum for n=2
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestQuantileSortedNearestRank(t *testing.T) {
	s := mergeSorted([]int64{50, 10, 30}, []int64{40, 20})
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 30}, {0.9, 50}, {0.2, 10}, {0.21, 20}, {1, 50}, {0, 10}} {
		if got := quantileSorted(s, c.q); got != c.want {
			t.Errorf("q%.2f = %d, want %d", c.q, got, c.want)
		}
	}
	if quantileSorted(nil, 0.5) != 0 {
		t.Error("empty sample set should give 0")
	}
}

func TestSamplesNeverGrow(t *testing.T) {
	s := newSamples(2)
	s.add(1)
	s.add(2)
	s.add(3)
	if len(s.v) != 2 || cap(s.v) != 2 || s.dropped != 1 {
		t.Fatalf("len %d cap %d dropped %d", len(s.v), cap(s.v), s.dropped)
	}
}
