package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"rqp/internal/plan"
	"rqp/internal/storage"
)

// fakeNode builds a minimal plan.Node tree for trace tests.
func fakeNode(label string, est float64, kids ...plan.Node) plan.Node {
	n := &plan.FilterNode{}
	n.Title = label
	n.Prop.EstRows = est
	n.Kids = kids
	return n
}

func TestTraceSpanTree(t *testing.T) {
	clock := storage.NewClock(storage.DefaultCostModel())
	tr := NewTrace(clock)

	leaf := fakeNode("Scan(r)", 100)
	root := fakeNode("Agg", 10, leaf)
	tr.AddFragment(root)

	rs := tr.SpanOf(root)
	ls := tr.SpanOf(leaf)
	if rs == nil || ls == nil {
		t.Fatal("spans not registered for plan nodes")
	}
	if len(rs.Children()) != 1 || rs.Children()[0] != ls {
		t.Fatal("span tree does not mirror plan tree")
	}
	// Re-adding the same fragment must not duplicate roots.
	tr.AddFragment(root)
	if got := len(tr.Roots()); got != 1 {
		t.Fatalf("roots = %d, want 1", got)
	}

	ls.AddCost(2.0)
	ls.Finish(50)
	rs.AddCost(5.0) // inclusive: contains the leaf's 2.0
	rs.Finish(10)

	if q := ls.QError(); q != 2.0 {
		t.Fatalf("leaf q-error = %v, want 2", q)
	}
	if self := rs.SelfCost(); self != 3.0 {
		t.Fatalf("root self cost = %v, want 3", self)
	}

	out := tr.Render()
	for _, want := range []string{"Agg", "Scan(r)", "est=100", "actual=50", "q=2.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}

	geo := tr.QErrorGeomean()
	want := math.Sqrt(2.0 * 1.0)
	if math.Abs(geo-want) > 1e-9 {
		t.Fatalf("qerror geomean = %v, want %v", geo, want)
	}
}

// TestTraceFusedSpan: a span finished as fused names the operator it ran
// inside — in the rendered tree and in the JSON dump — instead of a zero
// cost, and a plain span keeps both cost fields, zero or not.
func TestTraceFusedSpan(t *testing.T) {
	tr := NewTrace(storage.NewClock(storage.DefaultCostModel()))
	scan := fakeNode("Scan(r)", 100)
	idle := fakeNode("Scan(s)", 1)
	root := fakeNode("Agg", 10, scan, idle)
	tr.AddFragment(root)
	tr.SpanOf(scan).FinishFused(50, "Agg")
	tr.SpanOf(idle).Finish(0)
	tr.SpanOf(root).AddCost(5)
	tr.SpanOf(root).Finish(10)

	out := tr.Render()
	for _, want := range []string{
		"Scan(r) (est=100 actual=50 q=2.00 fused into Agg)\n",
		"Scan(s) (est=1 actual=0 q=1.00 cost=0.00 self=0.00)\n",
		"Agg (est=10 actual=10 q=1.00 cost=5.00 self=5.00)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Fragments []struct {
			Children []map[string]any `json:"children"`
		} `json:"fragments"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	fused, plain := dump.Fragments[0].Children[0], dump.Fragments[0].Children[1]
	if _, has := fused["cost_units"]; has || fused["fused_into"] != "Agg" || fused["actual_rows"] != 50.0 {
		t.Errorf("fused span dumps as %v", fused)
	}
	if c, has := plain["cost_units"]; !has || c != 0.0 || plain["self_cost_units"] != 0.0 || plain["fused_into"] != nil {
		t.Errorf("plain span dumps as %v", plain)
	}
}

func TestTraceEvents(t *testing.T) {
	clock := storage.NewClock(storage.DefaultCostModel())
	clock.SeqRead(3)
	tr := NewTrace(clock)
	tr.Event("pop.reopt", "step=1")
	tr.Event("pop.check", "est=10 actual=100 violated=true")

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].At != 3.0 {
		t.Fatalf("event timestamp = %v, want 3 (clock units)", evs[0].At)
	}
	if tr.CountEvents("pop.reopt") != 1 {
		t.Fatal("CountEvents mismatch")
	}

	n := fakeNode("Scan(r)", 5)
	tr.AddFragment(n)
	tr.SpanOf(n).Finish(5)
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Fragments []struct {
			Label      string  `json:"label"`
			ActualRows float64 `json:"actual_rows"`
		} `json:"fragments"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("JSON dump not parseable: %v", err)
	}
	if len(dump.Fragments) != 1 || dump.Fragments[0].Label != "Scan(r)" || dump.Fragments[0].ActualRows != 5 {
		t.Fatalf("bad JSON fragments: %+v", dump.Fragments)
	}
	if len(dump.Events) != 2 {
		t.Fatalf("bad JSON events: %+v", dump.Events)
	}
}

func TestRegistryCountersGauges(t *testing.T) {
	r := NewRegistry()
	r.Counter("rqp_queries_total", L("policy", "classic")).Inc()
	r.Counter("rqp_queries_total", L("policy", "classic")).Inc()
	r.Counter("rqp_queries_total", L("policy", "pop")).Inc()
	r.Gauge("rqp_plan_cache_hit_ratio").Set(0.75)

	if v := r.Counter("rqp_queries_total", L("policy", "classic")).Value(); v != 2 {
		t.Fatalf("counter = %d, want 2", v)
	}
	out := r.Expose()
	for _, want := range []string{
		"# TYPE rqp_queries_total counter",
		`rqp_queries_total{policy="classic"} 2`,
		`rqp_queries_total{policy="pop"} 1`,
		"# TYPE rqp_plan_cache_hit_ratio gauge",
		"rqp_plan_cache_hit_ratio 0.75",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rqp_qerror", QErrorBuckets)
	for _, v := range []float64{1, 1.2, 3, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	out := r.Expose()
	for _, want := range []string{
		"# TYPE rqp_qerror histogram",
		`rqp_qerror_bucket{le="1"} 1`,
		`rqp_qerror_bucket{le="2"} 2`,
		`rqp_qerror_bucket{le="4"} 3`,
		`rqp_qerror_bucket{le="+Inf"} 5`,
		"rqp_qerror_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentSafety(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c", L("w", "x")).Inc()
				r.Histogram("h", CostBuckets).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c", L("w", "x")).Value(); v != 4000 {
		t.Fatalf("counter = %d, want 4000", v)
	}
	if n := r.Histogram("h", CostBuckets).Count(); n != 4000 {
		t.Fatalf("histogram count = %d, want 4000", n)
	}
}

func TestHistogramRejectsNonFinite(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", CostBuckets)
	h.Observe(10)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), maxHistSample * 2, -maxHistSample * 2} {
		h.Observe(bad)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 (bad samples must not be counted)", h.Count())
	}
	if h.Sum() != 10 {
		t.Fatalf("sum = %v, want 10 (a NaN/Inf sample would corrupt it forever)", h.Sum())
	}
	if h.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", h.Dropped())
	}
	// A finite value near the bound still lands.
	h.Observe(maxHistSample / 2)
	if h.Count() != 2 {
		t.Fatalf("large finite sample rejected: count = %d", h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets)
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be NaN")
	}
	// 100 samples uniform in (0, 100]: p50 ≈ 50, p99 ≈ 99.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if p50 := h.Quantile(0.5); p50 < 25 || p50 > 75 {
		t.Fatalf("p50 = %v, want ≈50", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 75 || p99 > 100 {
		t.Fatalf("p99 = %v, want ≈99", p99)
	}
	if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	if !math.IsNaN(h.Quantile(0)) || !math.IsNaN(h.Quantile(1.5)) {
		t.Fatal("out-of-range q must be NaN")
	}
	// Overflow samples clamp to the highest finite bound.
	h2 := r.Histogram("of", []float64{1, 2})
	h2.Observe(1000)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("overflow quantile = %v, want clamp to 2", got)
	}
}

func TestCountEventsIsCheapAndExact(t *testing.T) {
	clock := storage.NewClock(storage.DefaultCostModel())
	tr := NewTrace(clock)
	for i := 0; i < 1000; i++ {
		tr.Event("spill.partition", "")
	}
	tr.Event("pop.reopt", "")
	// CountEvents is now a counter lookup, not an O(events) scan; the
	// counters must stay exact under the maintenance in Event.
	if got := tr.CountEvents("spill.partition"); got != 1000 {
		t.Fatalf("CountEvents = %d, want 1000", got)
	}
	if got := tr.CountEvents("pop.reopt"); got != 1 {
		t.Fatalf("CountEvents = %d, want 1", got)
	}
	if got := tr.CountEvents("never.seen"); got != 0 {
		t.Fatalf("CountEvents = %d, want 0", got)
	}
}
