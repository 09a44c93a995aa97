package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family for exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// metric is one labeled series inside a family. Exactly one of c, fn, h
// is set, matching the family kind.
type metric struct {
	labels string // rendered label set, e.g. `class="c2",method="deposit"`, or ""
	c      *Counter
	fn     func() int64
	h      *Hist
}

// family groups all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	seconds bool // histogram records nanoseconds; export as seconds
	metrics []metric
}

// Registry holds metric families and renders them as Prometheus text
// exposition or expvar-style JSON. Registration takes a lock; recording
// into registered counters and histograms is lock-free, and exposition
// reads atomics without stopping writers (each series is internally
// consistent; the page as a whole is a fuzzy snapshot, the standard
// Prometheus contract).
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	series   map[string]bool // "name{labels}" of every registered series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), series: make(map[string]bool)}
}

// add appends series m to family name, creating the family on first
// use. Registering a series twice, or a family under a second kind, is a
// programming error that would export duplicate or mistyped samples, so
// it panics, naming the series.
func (r *Registry) add(name, help string, kind Kind, seconds bool, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + wrapLabels(m.labels)
	if r.series[key] {
		panic(fmt.Sprintf("obs: series %s registered twice", key))
	}
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, seconds: seconds}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind || f.seconds != seconds {
		panic(fmt.Sprintf("obs: series %s registered as another kind than family %s", key, name))
	}
	r.series[key] = true
	f.metrics = append(f.metrics, m)
}

// Labels renders a label set in registration order, e.g.
// Labels("class", "c2", "method", "deposit") → `class="c2",method="deposit"`.
// Pairs must alternate key, value.
func Labels(kv ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter registers and returns a new counter series. labels may be ""
// for an unlabeled series (at most one per family).
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, c)
	return c
}

// RegisterCounter attaches an existing Counter — a cell the owning layer
// increments and reads for its own Stats — as a series of family name.
func (r *Registry) RegisterCounter(name, help, labels string, c *Counter) {
	r.add(name, help, KindCounter, false, metric{labels: labels, c: c})
}

// CounterFunc registers a counter series whose value is read through fn
// at export time (for counters that already live as atomics elsewhere).
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.add(name, help, KindCounter, false, metric{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge series read through fn at export time.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.add(name, help, KindGauge, false, metric{labels: labels, fn: fn})
}

// Histogram registers and returns a new histogram series. seconds marks
// a duration-valued histogram (recorded in nanoseconds, exported in
// seconds); raw-valued histograms (batch sizes) pass false.
func (r *Registry) Histogram(name, help, labels string, seconds bool) *Hist {
	h := &Hist{}
	r.RegisterHistogram(name, help, labels, seconds, h)
	return h
}

// RegisterHistogram attaches an existing Hist as a series of family name.
func (r *Registry) RegisterHistogram(name, help, labels string, seconds bool, h *Hist) {
	r.add(name, help, KindHistogram, seconds, metric{labels: labels, h: h})
}

// exportQuantiles are the summary quantiles rendered per histogram.
var exportQuantiles = [...]float64{0.5, 0.95, 0.99}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4). Histograms render as summaries — quantiles
// beat 496 le-buckets for log-bucketed data — with _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	for _, f := range fams {
		kind := "counter"
		switch f.kind {
		case KindGauge:
			kind = "gauge"
		case KindHistogram:
			kind = "summary"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, kind); err != nil {
			return err
		}
		for _, m := range f.metrics {
			if err := writeSeries(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, m metric) error {
	switch f.kind {
	case KindCounter, KindGauge:
		v := m.fn
		var val int64
		if v != nil {
			val = v()
		} else {
			val = m.c.Load()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, wrapLabels(m.labels), val)
		return err
	case KindHistogram:
		for _, q := range exportQuantiles {
			lbl := m.labels
			if lbl != "" {
				lbl += ","
			}
			lbl += fmt.Sprintf(`quantile="%g"`, q)
			if err := writeHistValue(w, f.name, lbl, f.seconds, float64(m.h.Quantile(q))); err != nil {
				return err
			}
		}
		sum := float64(m.h.Sum())
		if f.seconds {
			sum /= 1e9
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", f.name, wrapLabels(m.labels), sum); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, wrapLabels(m.labels), m.h.Count())
		return err
	}
	return nil
}

func writeHistValue(w io.Writer, name, labels string, seconds bool, v float64) error {
	if seconds {
		v /= 1e9
	}
	_, err := fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
	return err
}

func wrapLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WriteJSON renders the registry as one flat JSON object in the expvar
// idiom: scalar series map to numbers keyed "name" or "name{labels}";
// histograms map to {"count","sum","p50","p95","p99"} objects. Keys are
// emitted in sorted order so output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()

	type entry struct {
		key, val string
	}
	var entries []entry
	for _, f := range fams {
		for _, m := range f.metrics {
			key := f.name + wrapLabels(m.labels)
			var val string
			switch f.kind {
			case KindCounter, KindGauge:
				if m.fn != nil {
					val = fmt.Sprintf("%d", m.fn())
				} else {
					val = fmt.Sprintf("%d", m.c.Load())
				}
			case KindHistogram:
				div := 1.0
				if f.seconds {
					div = 1e9
				}
				val = fmt.Sprintf(`{"count":%d,"sum":%g,"p50":%g,"p95":%g,"p99":%g}`,
					m.h.Count(), float64(m.h.Sum())/div,
					float64(m.h.Quantile(0.5))/div,
					float64(m.h.Quantile(0.95))/div,
					float64(m.h.Quantile(0.99))/div)
			}
			entries = append(entries, entry{key: key, val: val})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })

	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, e := range entries {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%q: %s", sep, e.key, e.val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}
