package core

import (
	"strings"
	"testing"

	"rqp/internal/types"
)

// rfEngine builds an engine over a selective fact x dim pair: 2000 unique
// fact keys, 20 of them (spread across the domain) on the dim side.
func rfEngine(t *testing.T, rf bool) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.RuntimeFilters = rf
	e := Open(cfg)
	e.MustExec("CREATE TABLE fact (k int, v int)")
	e.MustExec("CREATE TABLE dim (k int, w int)")
	for i := 0; i < 2000; i++ {
		e.MustExec("INSERT INTO fact VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i%7)))
	}
	for i := 0; i < 20; i++ {
		e.MustExec("INSERT INTO dim VALUES (?, ?)", types.Int(int64(i*100)), types.Int(int64(i%3)))
	}
	e.MustExec("ANALYZE fact")
	e.MustExec("ANALYZE dim")
	return e
}

// TestEngineRuntimeFiltersExactAndCheaper: end to end through the engine,
// RuntimeFilters on and off must produce identical rows, the selective join
// must get cheaper, and the run must show up in the rqp_filter_* metrics.
func TestEngineRuntimeFiltersExactAndCheaper(t *testing.T) {
	const q = "SELECT fact.v, dim.w FROM fact, dim WHERE fact.k = dim.k"
	render := func(e *Engine) (string, float64) {
		r := e.MustExec(q)
		var sb strings.Builder
		for _, row := range r.Rows {
			sb.WriteString(row.String())
			sb.WriteByte('\n')
		}
		return sb.String(), r.Cost
	}

	base := rfEngine(t, false)
	rows, cost := render(base)
	fe := rfEngine(t, true)
	frows, fcost := render(fe)

	if frows != rows {
		t.Fatalf("runtime filters changed results:\n%s\nvs\n%s", frows, rows)
	}
	if fcost >= cost {
		t.Fatalf("selective join not cheaper with filters: %v >= %v units", fcost, cost)
	}
	exposed := fe.Metrics.Expose()
	for _, want := range []string{
		"rqp_filter_queries_total",
		"rqp_filter_built_total",
		"rqp_filter_tested_total",
		"rqp_filter_dropped_total",
	} {
		if !strings.Contains(exposed, want) {
			t.Errorf("metrics missing %s:\n%s", want, exposed)
		}
	}
	if strings.Contains(base.Metrics.Expose(), "rqp_filter_queries_total") {
		t.Error("filters-off engine counted a filtered query")
	}
}

// TestEngineRuntimeFiltersExplainAnalyze: EXPLAIN ANALYZE surfaces the
// filter lifecycle — planting, build, and the drop summary — as trace
// events in the rendered output.
func TestEngineRuntimeFiltersExplainAnalyze(t *testing.T) {
	e := rfEngine(t, true)
	r := e.MustExec("EXPLAIN ANALYZE SELECT fact.v, dim.w FROM fact, dim WHERE fact.k = dim.k")
	for _, want := range []string{"rf.plan", "rf.build", "rf.summary", "dropped="} {
		if !strings.Contains(r.Plan, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, r.Plan)
		}
	}
	if r.Trace == nil || countEvents(r.Trace, "rf.build") == 0 {
		t.Fatal("trace missing rf.build event")
	}
}
