package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {policy classic}).
type Label struct{ K, V string }

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{K: k, V: v} }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { atomic.AddInt64(&c.v, 1) }

// Add adds n (negative deltas are ignored to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		atomic.AddInt64(&c.v, n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is a settable float metric.
type Gauge struct{ bits uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { atomic.StoreUint64(&g.bits, math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(atomic.LoadUint64(&g.bits)) }

// Histogram is a fixed-bucket distribution metric. Observations only touch
// atomics, so the hot path takes no locks.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; implicit +Inf last
	counts  []int64   // len(bounds)+1
	sum     int64     // scaled by histScale
	n       int64
	dropped int64 // rejected non-finite samples
}

// histScale converts float samples to integer sub-units so _sum can be
// accumulated with a single atomic add. The conversion bounds the usable
// sample domain: |v| must stay below MaxInt64/histScale ≈ 9.2e12, and the
// running sum saturates correctness (wraps) once the *total* crosses the
// same bound. Every sample source in this engine (cost units, q-errors,
// latencies in ms) lives many orders of magnitude below that; Observe
// rejects the one class of input that breaks the invariant instantly —
// non-finite samples, whose int64 conversion is platform-defined and would
// corrupt _sum forever.
const histScale = 1e6

// maxHistSample is the largest magnitude a sample may have before its
// histScale conversion overflows int64.
const maxHistSample = float64(math.MaxInt64) / histScale

// Observe records one sample. NaN and ±Inf samples (and finite samples so
// large their scaled value cannot be represented — see histScale) are
// dropped and counted apart instead of corrupting the running sum.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v > maxHistSample || v < -maxHistSample {
		atomic.AddInt64(&h.dropped, 1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.sum, int64(v*histScale))
	atomic.AddInt64(&h.n, 1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.n) }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return float64(atomic.LoadInt64(&h.sum)) / histScale }

// Default bucket sets.
var (
	// QErrorBuckets covers multiplicative cardinality errors from exact
	// (q=1) to catastrophic.
	QErrorBuckets = []float64{1, 1.5, 2, 4, 8, 16, 64, 256, 1024}
	// CostBuckets covers per-query simulated cost units.
	CostBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}
	// LatencyBuckets covers per-query wall-clock latency in milliseconds,
	// from sub-millisecond point lookups to multi-second analytics — the
	// source of the p50/p99/p999 figures the lifecycle layer reports.
	LatencyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
)

// Registry holds an engine's metric families. Lookups take one short
// mutex; increments and observations are atomic.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name    string
	typ     string // "counter" | "gauge" | "histogram"
	buckets []float64
	series  map[string]any // label signature -> *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelSig renders labels canonically: `{a="x",b="y"}` with keys sorted.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].K < ls[j].K })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.K, l.V)
	}
	sb.WriteByte('}')
	return sb.String()
}

func (r *Registry) metric(name, typ string, buckets []float64, labels []Label, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ, buckets: buckets, series: map[string]any{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	sig := labelSig(labels)
	m, ok := f.series[sig]
	if !ok {
		m = mk()
		f.series[sig] = m
	}
	return m
}

// Counter returns (creating on first use) the counter series.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.metric(name, "counter", nil, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.metric(name, "gauge", nil, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram series. The
// bucket bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	return r.metric(name, "histogram", buckets, labels, func() any {
		r2 := r.families[name]
		return &Histogram{bounds: r2.buckets, counts: make([]int64, len(r2.buckets)+1)}
	}).(*Histogram)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Expose renders every family in the Prometheus text exposition format,
// sorted by family then label signature, so output is deterministic.
func (r *Registry) Expose() string {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			switch m := f.series[sig].(type) {
			case *Counter:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, sig, m.Value())
			case *Gauge:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, sig, fmtFloat(m.Value()))
			case *Histogram:
				writeHistogram(&sb, f.name, sig, m)
			}
		}
	}
	return sb.String()
}

func writeHistogram(sb *strings.Builder, name, sig string, h *Histogram) {
	// Cumulative bucket counts, per the exposition format.
	base := strings.TrimSuffix(strings.TrimPrefix(sig, "{"), "}")
	bucketSig := func(le string) string {
		if base == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", base, le)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += atomic.LoadInt64(&h.counts[i])
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketSig(fmtFloat(b)), cum)
	}
	cum += atomic.LoadInt64(&h.counts[len(h.bounds)])
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, bucketSig("+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, sig, fmtFloat(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, sig, h.Count())
}
