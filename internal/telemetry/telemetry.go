// Package telemetry is the observability spine of the simulator: a small,
// dependency-free metrics core (atomic counters, gauges and fixed-bucket
// histograms behind a labeled registry), a host-utilisation sampler attached
// to BENCH records, and the Prometheus-text /metrics + /debug/pprof HTTP
// surface that `clgpsim store serve` and `clgpsim worker -metrics-addr`
// expose.
//
// The hot-path contract mirrors the engine's: Counter.Add, Gauge.Set and
// Histogram.Observe are single atomic operations with zero allocations, so
// instrumented loops keep the simulator's 0 allocs/op invariant. All
// allocation happens at registration time; rendering walks the registry
// under a lock but never blocks writers.
package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is usable;
// registry-created counters additionally render under /metrics.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. The zero value is usable.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits in ascending order; an implicit +Inf bucket catches the
// rest. Observe is a bounded linear scan plus three atomic adds — no
// allocation, no lock — so it is safe on I/O paths without perturbing them.
type Histogram struct {
	bounds  []uint64
	buckets []atomic.Uint64 // len(bounds)+1; the last is +Inf
	count   atomic.Uint64
	sum     atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket bounds.
func NewHistogram(bounds []uint64) *Histogram {
	h := &Histogram{bounds: append([]uint64(nil), bounds...)}
	h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Label is one name="value" pair attached to a metric series.
type Label struct {
	// Key and Value are the label pair, rendered verbatim.
	Key, Value string
}

// series is one rendered (metric, labels) line of a family.
type series struct {
	labels  string // `{k="v",...}` or ""
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series sharing one metric name (and HELP/TYPE lines).
type family struct {
	name, help, kind string
	series           map[string]*series
	order            []string
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration methods are idempotent: asking for an
// already-registered (name, labels) series returns the existing instrument,
// so package-level metrics can be declared wherever they are used.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry every package-level metric lives in;
// the /metrics endpoints of the store server and workers serve it.
var Default = NewRegistry()

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// register resolves (or creates) the series for (name, labels), enforcing
// one kind per family.
func (r *Registry) register(name, help, kind string, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.kind, kind))
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at render time
// (live process facts: goroutine count, GOMAXPROCS, heap size).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, "gauge", labels)
	s.gaugeFn = fn
}

// Histogram returns the histogram registered under (name, labels) with the
// given bucket bounds, creating it on first use (bounds of an existing
// series win).
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	s := r.register(name, help, "histogram", labels)
	if s.hist == nil {
		s.hist = NewHistogram(bounds)
	}
	return s.hist
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, key := range f.order {
			if err := writeSeries(w, f, f.series[key]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %g\n", f.name, s.labels, s.gaugeFn())
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.gauge.Value())
		return err
	case s.hist != nil:
		// Histogram buckets are cumulative, closed with the +Inf bucket and
		// the _sum/_count pair, per the exposition format.
		inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
		sep := ""
		if inner != "" {
			sep = ","
		}
		cum := uint64(0)
		for i, bound := range s.hist.bounds {
			cum += s.hist.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", f.name, inner, sep, bound, cum); err != nil {
				return err
			}
		}
		cum += s.hist.buckets[len(s.hist.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", f.name, inner, sep, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", f.name, s.labels, s.hist.Sum()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, s.hist.Count())
		return err
	}
	return nil
}

// Handler serves the registry in the Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
