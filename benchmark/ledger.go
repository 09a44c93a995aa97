package main

import (
	"fmt"
	"math"
	"time"

	"repro/oodb"
)

// ledger is one generator's private record of what it did to each
// account, kept so the run can check its outputs afterwards: the final
// balance of every account must equal the preloaded balance plus the
// deposits minus the withdrawals that were acknowledged, and no view may
// have returned a balance the account could never have held.
type ledger struct {
	dep, wd    []uint32
	vmin, vmax []int64 // lowest and highest balance a view returned
}

func newLedger(accounts int) *ledger {
	l := &ledger{
		dep: make([]uint32, accounts), wd: make([]uint32, accounts),
		vmin: make([]int64, accounts), vmax: make([]int64, accounts),
	}
	for i := range l.vmin {
		l.vmin[i], l.vmax[i] = math.MaxInt64, math.MinInt64
	}
	return l
}

func (l *ledger) withdrew(a int)  { l.wd[a]++ }
func (l *ledger) deposited(a int) { l.dep[a]++ }

func (l *ledger) viewed(a int, balance int64) {
	if balance < l.vmin[a] {
		l.vmin[a] = balance
	}
	if balance > l.vmax[a] {
		l.vmax[a] = balance
	}
}

// checkLedgers compares the generators' records with the database.
// final returns the committed balance of account i. Every unit moved is
// accounted for per account, so the ledger total is conserved: it is
// the preloaded total plus the acknowledged deposits minus the
// acknowledged withdrawals (equal on the transfer workloads).
func checkLedgers(ledgers []*ledger, accounts int, final func(i int) (int64, error)) error {
	var total, wantTotal int64
	for i := 0; i < accounts; i++ {
		var dep, wd int64
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, l := range ledgers {
			dep += int64(l.dep[i])
			wd += int64(l.wd[i])
			lo, hi = min(lo, l.vmin[i]), max(hi, l.vmax[i])
		}
		got, err := final(i)
		if err != nil {
			return fmt.Errorf("read back account %d: %w", i, err)
		}
		if want := initialBalance + dep - wd; got != want {
			return fmt.Errorf("account %d: balance %d, want %d (%d deposits, %d withdrawals acknowledged)", i, got, want, dep, wd)
		}
		if lo != math.MaxInt64 && (lo < initialBalance-wd || hi > initialBalance+dep) {
			return fmt.Errorf("account %d: a view returned a balance in [%d,%d], outside [%d,%d] that the account could have held",
				i, lo, hi, initialBalance-wd, initialBalance+dep)
		}
		total += got
		wantTotal += initialBalance + dep - wd
	}
	if total != wantTotal {
		return fmt.Errorf("ledger total %d, want %d", total, wantTotal)
	}
	return nil
}

// checkFacadeLedgers reads every account back through a view of the
// public API and holds it against the ledgers.
func checkFacadeLedgers(db *oodb.Database, accounts []oodb.OID, ledgers []*ledger) error {
	return db.View(func(tx *oodb.Txn) error {
		return checkLedgers(ledgers, len(accounts), func(i int) (int64, error) {
			v, err := tx.Send(accounts[i], "getbalance")
			if err != nil {
				return 0, err
			}
			return v.(int64), nil
		})
	})
}

// ring is the FIFO of operations a pipelining generator has in flight.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) full() bool { return r.n == len(r.buf) }

func (r *ring[T]) push(v T) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// winClock maps a time to its window. Windows are equal and contiguous
// from start; an index of n or more means the phase is over.
type winClock struct {
	start  time.Time
	length time.Duration
	n      int
}

func (c winClock) index(t time.Time) int { return int(t.Sub(c.start) / c.length) }

// sleepUntil sleeps (never spins: on two processors a spinning generator
// starves the program it measures) until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// winSamples is one generator's latency record, split by window.
type winSamples struct {
	samples
	starts []int // starts[i] is the offset of window i's first sample
}

func newWinSamples(capacity, windows int) *winSamples {
	return &winSamples{samples: *newSamples(capacity), starts: make([]int, 0, windows+1)}
}

// enter records that samples from now on belong to window idx.
func (s *winSamples) enter(idx int) {
	for len(s.starts) <= idx {
		s.starts = append(s.starts, len(s.v))
	}
}

func (s *winSamples) window(i int) []int64 {
	if i >= len(s.starts) {
		return nil
	}
	end := len(s.v)
	if i+1 < len(s.starts) {
		end = s.starts[i+1]
	}
	return s.v[s.starts[i]:end]
}

// failedLatency stands for an operation that failed: it misses every
// latency limit, so it sorts above every real sample.
const failedLatency = math.MaxInt64

// ackWindows collects the latency figures of a run: for every window,
// the exact p50, p90 and p99 from issue (open loop: from due) to
// acknowledgement, in microseconds. Its metrics are the medians over the
// windows. They are per-layer, not end-to-end: on this host their spread
// between identical runs (up to 23 % on the wire) is too close to the
// largest bound allowed.
type ackWindows struct {
	q     [3][]float64
	total int // samples
}

var ackQuantiles = [3]struct {
	name string
	q    float64
}{{"bench.ack_p50_us", 0.50}, {"bench.ack_p90_us", 0.90}, {"bench.ack_p99_us", 0.99}}

// add takes the first `windows` windows of one rig's generators.
func (a *ackWindows) add(parts []*winSamples, windows int) {
	for w := 0; w < windows; w++ {
		var chunks [][]int64
		for _, p := range parts {
			chunks = append(chunks, p.window(w))
		}
		sorted := mergeSorted(chunks...)
		if len(sorted) == 0 {
			continue
		}
		a.total += len(sorted)
		for i, aq := range ackQuantiles {
			a.q[i] = append(a.q[i], float64(quantileSorted(sorted, aq.q))/1e3)
		}
	}
}

func (a *ackWindows) metrics() []metric {
	out := make([]metric, len(ackQuantiles))
	for i, aq := range ackQuantiles {
		out[i] = medianMetric(aq.name, "us", a.q[i])
		out[i].N = a.total
	}
	return out
}

// noteAck prints the latency figures in the report of an untraced run.
func noteAck(res *result, acks []metric) {
	for _, m := range acks {
		res.notef("%s %.3f us (n=%d, iqr over windows %.1f%%)", m.Name, m.Value, m.N, 100*m.Spread)
	}
}

// windowRates sums the generators' per-window counts into transactions
// per second.
func windowRates(counts [][]int64, length time.Duration) []float64 {
	rates := make([]float64, len(counts[0]))
	for w := range rates {
		var n int64
		for _, c := range counts {
			n += c[w]
		}
		rates[w] = float64(n) / length.Seconds()
	}
	return rates
}

// pickWindows returns the values of the chosen windows.
func pickWindows(xs []float64, windows []int) []float64 {
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		out = append(out, xs[w])
	}
	return out
}

func allWindows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// formatRates prints rates in thousands a second for the report.
func formatRates(rates []float64) string {
	s := ""
	for _, r := range rates {
		s += fmt.Sprintf(" %.0f", r/1e3)
	}
	return s
}
