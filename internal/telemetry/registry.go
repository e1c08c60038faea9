package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the fixed log-scale bucket upper bounds shared by
// every histogram: powers of 4 from 1µs to ~1074s (plus +Inf), covering
// everything from a cache probe to a full ensemble load with 16 buckets.
var histBuckets = func() []float64 {
	b := make([]float64, 16)
	ub := 1e-6
	for i := range b {
		b[i] = ub
		ub *= 4
	}
	return b
}()

// Histogram accumulates float64 observations (seconds, by convention)
// into fixed log-scale buckets. A single short mutex section per
// Observe keeps (count, sum, buckets) mutually consistent, so readers
// such as /healthz mean-latency never see torn pairs.
type Histogram struct {
	mu      sync.Mutex
	buckets [17]int64 // histBuckets plus +Inf
	count   int64
	sum     float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(histBuckets) && v > histBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Snapshot returns a consistent (count, sum) pair.
func (h *Histogram) Snapshot() (count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum
}

// snapshotFull copies the buckets too (for rendering).
func (h *Histogram) snapshotFull() (buckets [17]int64, count int64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buckets, h.count, h.sum
}

// series is one labeled instance of a metric family.
type series struct {
	labels string   // rendered {k="v",...} or ""
	kv     []string // alternating key, value pairs, sorted by key
	metric any      // *Counter, *Gauge, or *Histogram
}

// family is one named metric with help text, a type, and its series.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	series map[string]*series
}

// Registry holds typed metrics and renders them as Prometheus text.
// Lookups are idempotent: asking for the same (name, labels) returns
// the same metric, so callers may either cache the pointer (hot paths)
// or re-look it up.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Default is the process-wide registry: kernels, the parallel engine,
// the store, and span duration histograms all record here. Servers may
// carry their own Registry to keep per-instance metrics isolated.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key, value pairs into a canonical
// label string plus the sorted pair list. Pairs are sorted by key so
// equivalent label sets share one series.
func renderLabels(kv []string) (string, []string) {
	if len(kv) == 0 {
		return "", nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var b strings.Builder
	sorted := make([]string, 0, len(kv))
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`=`)
		b.WriteString(strconv.Quote(p.v))
		sorted = append(sorted, p.k, p.v)
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// lookup finds or creates the series for (name, labels), verifying the
// family's type and constructing the metric with mk on first sight.
func (r *Registry) lookup(name, help, typ string, labels []string, mk func() any) any {
	ls, kv := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series)}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	s, ok := f.series[ls]
	if !ok {
		s = &series{labels: ls, kv: kv, metric: mk()}
		f.series[ls] = s
	}
	return s.metric
}

// VisitHistograms calls f for every series of the named histogram
// family with its sorted (key, value) label pairs. Series appearing
// after the snapshot under the lock are picked up on the next visit —
// the monitor's baseline rules read their family this way every
// sampler tick.
func (r *Registry) VisitHistograms(name string, f func(kv []string, h *Histogram)) {
	r.mu.Lock()
	fam := r.fams[name]
	var views []*series
	if fam != nil && fam.typ == "histogram" {
		views = make([]*series, 0, len(fam.series))
		for _, s := range fam.series {
			views = append(views, s)
		}
	}
	r.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].labels < views[b].labels })
	for _, s := range views {
		f(s.kv, s.metric.(*Histogram))
	}
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key, value strings.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.lookup(name, help, "counter", labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram for (name, labels).
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	return r.lookup(name, help, "histogram", labels, func() any { return new(Histogram) }).(*Histogram)
}

// SumCounter sums every series of a counter family (0 when absent) —
// the aggregate view /healthz reports for per-endpoint counters.
func (r *Registry) SumCounter(name string) int64 {
	r.mu.Lock()
	f := r.fams[name]
	var metrics []*Counter
	if f != nil {
		for _, s := range f.series {
			metrics = append(metrics, s.metric.(*Counter))
		}
	}
	r.mu.Unlock()
	var total int64
	for _, c := range metrics {
		total += c.Value()
	}
	return total
}

// MetricSnapshot is one family's instantaneous aggregate view, summed
// across its series: counters and gauges report Value; histograms
// report the observation Count and Sum. The monitor sampler turns a
// sequence of these into windowed rates.
type MetricSnapshot struct {
	Name  string
	Type  string // "counter", "gauge", "histogram"
	Value float64
	Count int64
	Sum   float64
}

// Snapshot returns every family summed across its series, sorted by
// name. References are collected under the lock but the atomics are
// read outside it, so a snapshot never blocks hot-path increments.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	type famView struct {
		name, typ string
		metrics   []any
	}
	views := make([]famView, 0, len(r.fams))
	for _, f := range r.fams {
		v := famView{name: f.name, typ: f.typ, metrics: make([]any, 0, len(f.series))}
		for _, s := range f.series {
			v.metrics = append(v.metrics, s.metric)
		}
		views = append(views, v)
	}
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(views))
	for _, v := range views {
		snap := MetricSnapshot{Name: v.name, Type: v.typ}
		for _, m := range v.metrics {
			switch m := m.(type) {
			case *Counter:
				snap.Value += float64(m.Value())
			case *Gauge:
				snap.Value += float64(m.Value())
			case *Histogram:
				count, sum := m.Snapshot()
				snap.Count += count
				snap.Sum += sum
			}
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every metric in the Prometheus text exposition
// format. Output is fully deterministic for a given metric state:
// families sort by name, series by label string, histogram buckets by
// bound — the golden-file tests pin this ordering.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	// Series maps are append-only; copy the slices under the lock and
	// render outside it.
	type famView struct {
		f      *family
		series []*series
	}
	views := make([]famView, len(fams))
	for i, f := range fams {
		v := famView{f: f}
		for _, s := range f.series {
			v.series = append(v.series, s)
		}
		sort.Slice(v.series, func(a, b int) bool { return v.series[a].labels < v.series[b].labels })
		views[i] = v
	}
	r.mu.Unlock()
	sort.Slice(views, func(a, b int) bool { return views[a].f.name < views[b].f.name })

	var b strings.Builder
	for _, v := range views {
		fmt.Fprintf(&b, "# HELP %s %s\n", v.f.name, v.f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", v.f.name, v.f.typ)
		for _, s := range v.series {
			switch m := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", v.f.name, s.labels, m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", v.f.name, s.labels, m.Value())
			case *Histogram:
				buckets, count, sum := m.snapshotFull()
				cum := int64(0)
				for i, ub := range histBuckets {
					cum += buckets[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", v.f.name, withLE(s.labels, formatFloat(ub)), cum)
				}
				cum += buckets[len(histBuckets)]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", v.f.name, withLE(s.labels, "+Inf"), cum)
				fmt.Fprintf(&b, "%s_sum%s %s\n", v.f.name, s.labels, formatFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", v.f.name, s.labels, count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// withLE appends the le label to a rendered label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
