package main

import "math"

// rng is a splitmix64 generator: every input the program receives is
// drawn from one of these, seeded from -seed, so the same seed gives the
// same inputs on any Go version.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0,n). The modulo bias is below 2^-40 for the
// population sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfTable draws ranks in [0,n) with P(k) proportional to 1/(k+1)^s by
// inverting a precomputed cumulative table.
type zipfTable struct{ cum []float64 }

func newZipfTable(n int, s float64) *zipfTable {
	cum := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	cum[n-1] = 1
	return &zipfTable{cum: cum}
}

func (z *zipfTable) draw(r *rng) int {
	u := float64(r.next()>>11) / (1 << 53)
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// picker chooses account indexes: uniform over the population, or
// zipfian over a hot set.
type picker struct {
	r    *rng
	n    int
	zipf *zipfTable
}

func (p *picker) pick() int {
	if p.zipf != nil {
		return p.zipf.draw(p.r)
	}
	return p.r.intn(p.n)
}

// pickOther returns an index different from a, so a transfer never
// withdraws from and deposits into the same account.
func (p *picker) pickOther(a int) int {
	for {
		if b := p.pick(); b != a {
			return b
		}
	}
}
