package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans are recorded by the benchmark itself, around the calls it makes
// into each layer's public functions; nothing inside the program is
// instrumented. One tracer belongs to one generator goroutine, so
// recording takes no lock. Every span is folded into a per-name
// aggregate (count, total time, time covered by child spans); the first
// spansKept raw spans are also kept in memory and written out at exit
// when -spans names a file.

type spanName uint8

const (
	spanUpdate       spanName = iota // oodb.Update (embedded) / RunWithRetryPipelined (restart)
	spanView                         // oodb.View
	spanSend                         // Txn.Send / DB.SendID inside an open transaction
	spanCreateDelete                 // Txn.New + Txn.Delete
	spanFutureWait                   // Future.Wait of a pipelined commit
	spanClientStart                  // client.Start
	spanClientWait                   // Pending.Wait
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	spanUpdate:       "update (begin, commit, retry: facade + txn self time)",
	spanView:         "view (snapshot begin/end: facade + txn self time)",
	spanSend:         "send (engine: lock, dispatch, VM body, undo capture)",
	spanCreateDelete: "create+delete (engine + storage)",
	spanFutureWait:   "future wait (wal group commit, blocked)",
	spanClientStart:  "client.Start (encode + buffer)",
	spanClientWait:   "pending.Wait (flush, server, fsync: blocked)",
}

var spanShort = [numSpanNames]string{
	spanUpdate: "update", spanView: "view", spanSend: "send", spanCreateDelete: "create_delete",
	spanFutureWait: "future_wait", spanClientStart: "client_start", spanClientWait: "client_wait",
}

const spansKept = 1 << 18

type rawSpan struct {
	txn        uint32
	worker     uint8
	name       spanName
	parent     spanName // numSpanNames when the span is a root
	start, end int64    // ns since the tracer's epoch
}

type spanAgg struct {
	count int64
	total int64 // ns
	child int64 // ns covered by child spans
}

type tracer struct {
	worker uint8
	epoch  time.Time
	txn    uint32
	agg    [numSpanNames]spanAgg
	stack  [4]struct {
		name  spanName
		start time.Time
	}
	depth int
	raw   []rawSpan
}

func newTracer(worker int, epoch time.Time) *tracer {
	return &tracer{worker: uint8(worker), epoch: epoch, raw: make([]rawSpan, 0, spansKept)}
}

// nextTxn starts a new transaction: spans recorded until the next call
// share its identifier.
func (t *tracer) nextTxn() { t.txn++ }

func (t *tracer) begin(name spanName) {
	t.stack[t.depth].name = name
	t.stack[t.depth].start = time.Now()
	t.depth++
}

func (t *tracer) end() {
	now := time.Now()
	t.depth--
	s := t.stack[t.depth]
	d := now.Sub(s.start).Nanoseconds()
	a := &t.agg[s.name]
	a.count++
	a.total += d
	parent := numSpanNames
	if t.depth > 0 {
		parent = t.stack[t.depth-1].name
		t.agg[parent].child += d
	}
	if len(t.raw) < cap(t.raw) {
		t.raw = append(t.raw, rawSpan{
			txn: t.txn, worker: t.worker, name: s.name, parent: parent,
			start: s.start.Sub(t.epoch).Nanoseconds(), end: now.Sub(t.epoch).Nanoseconds(),
		})
	}
}

// ladder is the outside-in table of a traced run: each row a layer's
// self time per transaction (span time minus the part its child spans
// cover), and a last row for the time the generator spent outside any
// span. perTxnNS is the traced per-transaction time the rows are held
// against: worker-seconds of the traced windows over transactions.
func ladder(res *result, title string, tracers []*tracer, txns int64, perTxnNS float64) {
	var agg [numSpanNames]spanAgg
	for _, t := range tracers {
		for i := range agg {
			agg[i].count += t.agg[i].count
			agg[i].total += t.agg[i].total
			agg[i].child += t.agg[i].child
		}
	}
	res.notef("ladder %s: %d traced transactions, %.0f ns each (worker time of the traced windows / transactions)", title, txns, perTxnNS)
	res.notef("  %-62s %10s %7s %12s", "layer (self time = span minus its children)", "ns/txn", "share", "calls/txn")
	sum := 0.0
	for i, a := range agg {
		if a.count == 0 {
			continue
		}
		self := float64(a.total-a.child) / float64(txns)
		sum += self
		res.notef("  %-62s %10.0f %6.1f%% %12.2f", spanLabels[i], self, 100*self/perTxnNS, float64(a.count)/float64(txns))
	}
	res.notef("  %-62s %10.0f %6.1f%%", "outside every span (generator, bookkeeping, span recording)", perTxnNS-sum, 100*(perTxnNS-sum)/perTxnNS)
	res.notef("  span self times sum to %.0f ns = %.1f%% of the traced per-transaction time", sum, 100*sum/perTxnNS)
}

// newTracers returns one tracer per generator, or nil when the run is
// not traced.
func newTracers(traced bool) []*tracer {
	if !traced {
		return nil
	}
	epoch := time.Now()
	ts := make([]*tracer, workers)
	for i := range ts {
		ts[i] = newTracer(i, epoch)
	}
	return ts
}

// finishTrace ends a traced run: the layer probes, then the raw spans
// if a file was named for them.
func finishTrace(cfg *config, res *result, tracers []*tracer, accounts int) error {
	if err := addProbeMetrics(cfg, res, accounts); err != nil {
		return err
	}
	if cfg.spans == "" {
		return nil
	}
	return writeSpans(cfg.spans, tracers)
}

// splitTraced separates the windows of a traced run: the even ones
// recorded spans, the odd ones did not.
func splitTraced(windows []int) (traced, untraced []int) {
	for _, w := range windows {
		if w%2 == 0 {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	return traced, untraced
}

func sumWindows(counts [][]int64, windows []int) (n int64) {
	for _, c := range counts {
		for _, w := range windows {
			n += c[w]
		}
	}
	return n
}

// traceReport prints the ladder of a windowed traced run and returns
// the tracing overhead in percent: the median traced window against the
// median untraced one.
func traceReport(res *result, title string, tracers []*tracer, counts [][]int64, clk winClock) float64 {
	traced, untraced := splitTraced(allWindows(clk.n))
	txns := sumWindows(counts, traced)
	perTxn := float64(workers) * float64(len(traced)) * float64(clk.length.Nanoseconds()) / float64(txns)
	ladder(res, title, tracers, txns, perTxn)
	rates := windowRates(counts, clk.length)
	tr, un := median(pickWindows(rates, traced)), median(pickWindows(rates, untraced))
	overhead := 100 * (1 - tr/un)
	res.notef("  tracing overhead: %.0f txn/s in traced windows against %.0f untraced = %.1f%%", tr, un, overhead)
	return overhead
}

// writeSpans dumps the raw spans kept in memory, one JSON object a
// line: name, start, end, the span that caused it, and the transaction
// (worker, txn) the spans of one request share.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.raw {
			parent := ""
			if s.parent < numSpanNames {
				parent = spanShort[s.parent]
			}
			err := enc.Encode(struct {
				Name    string `json:"name"`
				Parent  string `json:"parent"`
				Worker  uint8  `json:"worker"`
				Txn     uint32 `json:"txn"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{spanShort[s.name], parent, s.worker, s.txn, s.start, s.end})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
