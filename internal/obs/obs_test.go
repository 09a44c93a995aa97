package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHistBucketRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 7, 8, 9, 100, 1023, 1024, 1 << 20, 1<<40 + 12345, math.MaxUint64 >> 1} {
		idx := histBucketOf(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucket index %d out of range for %d", idx, v)
		}
		mid := histBucketMid(idx)
		// The midpoint must land back in the same bucket.
		if got := histBucketOf(mid); got != idx {
			t.Fatalf("midpoint %d of bucket %d maps to bucket %d", mid, idx, got)
		}
		// Relative error bounded by bucket width (~12.5% worst case).
		if v >= histSub {
			rel := math.Abs(float64(mid)-float64(v)) / float64(v)
			if rel > 0.13 {
				t.Fatalf("value %d: midpoint %d off by %.1f%%", v, mid, rel*100)
			}
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(uint64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 500500 {
		t.Fatalf("sum = %d", h.Sum())
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}} {
		got := float64(h.Quantile(tc.q))
		if math.Abs(got-tc.want)/tc.want > 0.13 {
			t.Errorf("q%g = %g, want ~%g", tc.q, got, tc.want)
		}
	}
}

// TestHistQuantileNearestRank: the q-quantile of n values is the
// ⌈q·n⌉-th smallest, not the ⌊q·n⌋-th.
func TestHistQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		vals []uint64
		q    float64
		want uint64
	}{
		{[]uint64{1, 1000}, 0.99, histBucketMid(histBucketOf(1000))},
		{[]uint64{1, 1000}, 0.5, 1},
		{[]uint64{1, 2, 3}, 0.5, 2},
		{[]uint64{1, 2, 3}, 1, 3},
		{[]uint64{5}, 0.01, 5},
	} {
		var h Hist
		for _, v := range tc.vals {
			h.Observe(v)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("q%g of %v = %d, want %d", tc.q, tc.vals, got, tc.want)
		}
	}
}

// TestHistSampled mixes untimed (Inc) and sampled (RecordSample) events
// from two goroutines: the count stays exact, each sample weighs
// SampleEvery in the buckets, and the quantiles and sum of 64 Ki
// uniform values estimated from their samples land within the bucket
// tolerance of the true ones.
func TestHistSampled(t *testing.T) {
	var h Hist
	const workers, per, maxV = 2, 32 << 10, 1000
	var samples atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v := 1 + rand.N[time.Duration](maxV)
				if Sample() {
					h.RecordSample(v)
					samples.Add(1)
				} else {
					h.Inc()
				}
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var mass int64
	for i := range h.buckets {
		mass += h.buckets[i].Load()
	}
	if n := samples.Load(); n == 0 || mass != SampleEvery*n {
		t.Fatalf("bucket mass = %d, want %d × %d samples", mass, SampleEvery, n)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want)/want > 0.13 {
			t.Errorf("%s = %g, want ~%g", what, got, want)
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		near(fmt.Sprintf("q%g", q), float64(h.Quantile(q)), q*maxV)
	}
	near("sum", float64(h.Sum()), workers*per*(maxV+1)/2)
}

func TestHistRecordClampsNegative(t *testing.T) {
	var h Hist
	h.Record(-time.Second)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Fatalf("negative record: count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(seed*1000 + uint64(i)%997)
			}
		}(uint64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestFlightRecorder(t *testing.T) {
	var fr FlightRecorder
	if fr.Enabled() {
		t.Fatal("recorder enabled by default")
	}
	var tr TxnTrace
	tr.Start(time.Now())
	tr.Add(EvLockWait, 5*time.Millisecond, 42)
	tr.Add(EvCommit, 0, 7)
	if fr.Note(1, &tr) {
		t.Fatal("disabled recorder captured a trace")
	}

	fr.SetThreshold(time.Nanosecond)
	tr.Start(time.Now().Add(-time.Second)) // looks slow
	tr.Add(EvAbort, 0, AbortDeadlock)
	if !fr.Note(2, &tr) {
		t.Fatal("slow txn not captured")
	}
	got := fr.SlowTxns()
	if len(got) != 1 || got[0].TxnID != 2 {
		t.Fatalf("SlowTxns = %+v", got)
	}
	if len(got[0].Events) != 2 || got[0].Events[0].Kind != EvBegin || got[0].Events[1].Kind != EvAbort {
		t.Fatalf("events = %+v", got[0].Events)
	}
	if got[0].Events[1].Arg != AbortDeadlock {
		t.Fatalf("abort arg = %d", got[0].Events[1].Arg)
	}

	fr.SetThreshold(time.Hour)
	tr.Start(time.Now())
	if fr.Note(3, &tr) {
		t.Fatal("fast txn captured")
	}
	if fr.Captured() != 1 {
		t.Fatalf("captured = %d", fr.Captured())
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	var fr FlightRecorder
	fr.SetThreshold(time.Nanosecond)
	var tr TxnTrace
	for i := 0; i < recorderRing+10; i++ {
		tr.Start(time.Now().Add(-time.Second))
		fr.Note(uint64(i), &tr)
	}
	got := fr.SlowTxns()
	if len(got) != recorderRing {
		t.Fatalf("ring holds %d, want %d", len(got), recorderRing)
	}
	// Newest first.
	if got[0].TxnID != recorderRing+9 || got[len(got)-1].TxnID != 10 {
		t.Fatalf("order: first=%d last=%d", got[0].TxnID, got[len(got)-1].TxnID)
	}
}

func TestTraceOverflowDrops(t *testing.T) {
	var tr TxnTrace
	tr.Start(time.Now())
	for i := 0; i < traceEvents+5; i++ {
		tr.Add(EvLockWait, 0, uint64(i))
	}
	if tr.n != traceEvents {
		t.Fatalf("n = %d", tr.n)
	}
	if tr.dropped != 6 { // 5 + the one that displaced nothing (Begin used slot 0)
		t.Fatalf("dropped = %d", tr.dropped)
	}
}

// parsePromText parses Prometheus text exposition into name{labels} → value,
// enough to round-trip our own output.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		out[key] = v
	}
	return out
}

func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("favcc_commits_total", "Committed transactions.", "")
	c.Add(17)
	reg.CounterFunc("favcc_aborts_total", "Aborted transactions.", `class="c2"`, func() int64 { return 3 })
	reg.GaugeFunc("favcc_queue_depth", "WAL writer queue depth.", "", func() int64 { return 5 })
	h := reg.Histogram("favcc_send_latency_seconds", "Send latency.", Labels("class", "c2", "method", "deposit"), true)
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(i+1) * time.Microsecond)
	}
	b := reg.Histogram("favcc_wal_batch_size", "Records per WAL batch.", "", false)
	b.Observe(4)
	b.Observe(8)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	got := parsePromText(t, text)

	if got["favcc_commits_total"] != 17 {
		t.Errorf("commits = %g", got["favcc_commits_total"])
	}
	if got[`favcc_aborts_total{class="c2"}`] != 3 {
		t.Errorf("aborts = %g", got[`favcc_aborts_total{class="c2"}`])
	}
	if got["favcc_queue_depth"] != 5 {
		t.Errorf("queue depth = %g", got["favcc_queue_depth"])
	}
	cnt := got[`favcc_send_latency_seconds_count{class="c2",method="deposit"}`]
	if cnt != 100 {
		t.Errorf("hist count = %g", cnt)
	}
	// Sum of 1..100 µs = 5050 µs = 5.05e-3 s.
	sum := got[`favcc_send_latency_seconds_sum{class="c2",method="deposit"}`]
	if math.Abs(sum-5.05e-3) > 1e-6 {
		t.Errorf("hist sum = %g", sum)
	}
	p50 := got[`favcc_send_latency_seconds{class="c2",method="deposit",quantile="0.5"}`]
	if p50 < 40e-6 || p50 > 60e-6 {
		t.Errorf("p50 = %g", p50)
	}
	if got["favcc_wal_batch_size_count"] != 2 || got["favcc_wal_batch_size_sum"] != 12 {
		t.Errorf("batch hist: count=%g sum=%g", got["favcc_wal_batch_size_count"], got["favcc_wal_batch_size_sum"])
	}
	// Round-trip against the registry snapshot: every registered series
	// appears with its live value.
	if !strings.Contains(text, "# TYPE favcc_send_latency_seconds summary") {
		t.Error("missing summary TYPE line")
	}
	if !strings.Contains(text, "# HELP favcc_commits_total Committed transactions.") {
		t.Error("missing HELP line")
	}
}

// TestRegistryRejectsDuplicateSeries: a series registered twice would be
// exported twice — a scrape Prometheus rejects, and a JSON object with a
// duplicate key — so registration panics, naming it. So does a family
// registered under a second kind.
func TestRegistryRejectsDuplicateSeries(t *testing.T) {
	mustPanic := func(what, want string, register func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s: panic %v, want one naming %s", what, r, want)
			}
		}()
		register()
	}
	reg := NewRegistry()
	reg.Counter("a_total", "A.", `k="1"`)
	reg.Counter("a_total", "A.", `k="2"`) // another series of the family
	mustPanic("same series", `a_total{k="1"}`, func() { reg.Counter("a_total", "A.", `k="1"`) })
	mustPanic("same series, func", `a_total{k="2"}`, func() { reg.CounterFunc("a_total", "A.", `k="2"`, nil) })
	mustPanic("another kind", `a_total{k="3"}`, func() { reg.GaugeFunc("a_total", "A.", `k="3"`, nil) })
	reg.Histogram("d_seconds", "D.", "", true)
	mustPanic("another unit", `d_seconds{k="1"}`, func() { reg.Histogram("d_seconds", "D.", `k="1"`, false) })
}

func TestWriteJSONValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.", "").Add(1)
	h := reg.Histogram("lat_seconds", "L.", `k="v"`, true)
	h.Record(time.Millisecond)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if m["a_total"] != float64(1) {
		t.Errorf("a_total = %v", m["a_total"])
	}
	hv, ok := m[`lat_seconds{k="v"}`].(map[string]any)
	if !ok {
		t.Fatalf("histogram entry missing: %v", m)
	}
	if hv["count"] != float64(1) {
		t.Errorf("hist count = %v", hv["count"])
	}
}

func TestLabelsEscaping(t *testing.T) {
	got := Labels("k", `a"b\c`+"\n")
	want := `k="a\"b\\c\n"`
	if got != want {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "X.", "").Add(2)
	var fr FlightRecorder
	fr.SetThreshold(time.Nanosecond)
	var tr TxnTrace
	tr.Start(time.Now().Add(-time.Second))
	tr.Add(EvCommit, 0, 9)
	fr.Note(11, &tr)

	h := NewDebugHandler(reg, &fr)
	for _, tc := range []struct {
		path, want string
	}{
		{"/metrics", "x_total 2"},
		{"/vars", `"x_total": 2`},
		{"/slowtxns", "txn 11"},
		{"/debug/pprof/", "profiles"},
	} {
		req := httptest.NewRequest("GET", tc.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("%s: status %d", tc.path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: body %q missing %q", tc.path, rec.Body.String(), tc.want)
		}
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	var h Hist
	var c Counter
	allocs := testing.AllocsPerRun(100, func() {
		h.Record(123 * time.Nanosecond)
		c.Inc()
	})
	if allocs != 0 {
		t.Fatalf("Record/Inc allocates %g per op", allocs)
	}
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}

func ExampleRegistry_WritePrometheus() {
	reg := NewRegistry()
	reg.Counter("demo_total", "Demo counter.", "").Add(1)
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # HELP demo_total Demo counter.
	// # TYPE demo_total counter
	// demo_total 1
}
