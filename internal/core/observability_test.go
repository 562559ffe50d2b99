package core

import (
	"sort"
	"strings"
	"testing"

	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// TestExplainAnalyzeRendersActuals: EXPLAIN ANALYZE executes the query and
// prints a plan tree with estimated rows, actual rows and per-node q-error.
func TestExplainAnalyzeRendersActuals(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("EXPLAIN ANALYZE SELECT dept, COUNT(*) FROM emp WHERE salary >= 40000 GROUP BY dept")
	if len(r.Rows) != 0 {
		t.Fatalf("EXPLAIN ANALYZE must not return rows, got %d", len(r.Rows))
	}
	if r.Trace == nil {
		t.Fatal("EXPLAIN ANALYZE must attach a trace")
	}
	for _, want := range []string{"est=", "actual=", "q=", "cost=", "row(s)"} {
		if !strings.Contains(r.Plan, want) {
			t.Fatalf("EXPLAIN ANALYZE output missing %q:\n%s", want, r.Plan)
		}
	}
	// The span tree must mirror an executed plan: multiple indented lines.
	if len(strings.Split(strings.TrimSpace(r.Plan), "\n")) < 3 {
		t.Fatalf("EXPLAIN ANALYZE output suspiciously small:\n%s", r.Plan)
	}
	if r.Cost <= 0 {
		t.Fatal("EXPLAIN ANALYZE must execute (cost > 0)")
	}
	// The JSON dump round-trips.
	if raw, err := r.Trace.JSON(); err != nil || len(raw) == 0 {
		t.Fatalf("trace JSON dump failed: %v", err)
	}
}

// TestExplainAnalyzeRejectsNonSelect: only SELECT can be analyzed.
func TestExplainAnalyzeStillExplainsWithoutExecuting(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("EXPLAIN SELECT dept FROM emp WHERE dept = 1")
	if strings.Contains(r.Plan, "actual=") {
		t.Fatalf("plain EXPLAIN must not execute:\n%s", r.Plan)
	}
}

// TestTracedPOPRecordsReopts: a traced POP run over the correlation-trap
// star workload records at least one re-optimization event.
func TestTracedPOPRecordsReopts(t *testing.T) {
	sc := workload.DefaultStar()
	sc.FactRows, sc.DimRows, sc.Dim2Rows = 4000, 1200, 500
	cat, err := workload.BuildStar(sc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicyPOP
	cfg.TraceAll = true
	e := Attach(cat, cfg)

	reopts, reoptEvents, checkEvents := 0, 0, 0
	for _, q := range workload.StarWorkload(sc, 20, 1.0, 7) {
		r, err := e.Exec(q.SQL)
		if err != nil {
			t.Fatalf("pop exec: %v", err)
		}
		if r.Trace == nil {
			t.Fatal("TraceAll must attach a trace")
		}
		reopts += r.Reopts
		reoptEvents += r.Trace.CountEvents("pop.reopt")
		checkEvents += r.Trace.CountEvents("pop.check")
	}
	if reopts < 1 {
		t.Fatal("trapped star workload produced no POP re-optimizations")
	}
	if reoptEvents != reopts {
		t.Fatalf("trace recorded %d pop.reopt events for %d reopts", reoptEvents, reopts)
	}
	if checkEvents < reoptEvents {
		t.Fatalf("checks (%d) < reopts (%d)", checkEvents, reoptEvents)
	}
	// The registry aggregated them too.
	if v := e.Metrics.Counter("rqp_reopts_total").Value(); v != int64(reopts) {
		t.Fatalf("rqp_reopts_total = %d, want %d", v, reopts)
	}
}

// TestMetricsExposition: after a mixed workload the exposition includes
// query counts by policy, the plan-cache hit ratio and a q-error histogram.
func TestMetricsExposition(t *testing.T) {
	e := newEngine(t)
	e.Cache = NewPlanCache(0)
	q := "SELECT dept, COUNT(*) FROM emp GROUP BY dept"
	for i := 0; i < 3; i++ {
		e.MustExec(q)
	}
	out := e.Metrics.Expose()
	for _, want := range []string{
		`rqp_queries_total{policy="classic"} 3`,
		"# TYPE rqp_plan_cache_hit_ratio gauge",
		"# TYPE rqp_qerror histogram",
		"rqp_qerror_bucket",
		"# TYPE rqp_query_cost_units histogram",
		"rqp_plan_cache_hits_total 2",
		"rqp_plan_cache_misses_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Hit ratio after 1 miss + 2 hits.
	if !strings.Contains(out, "rqp_plan_cache_hit_ratio 0.6666666666666666") {
		t.Fatalf("unexpected hit ratio in:\n%s", out)
	}
}

// TestColumnarHeapPagesObservable: after an UPDATE, a columnar scan reads
// the one page it changed from the heap, and says so — heap_pages=1 in the
// columnar.summary event EXPLAIN ANALYZE renders, and the
// rqp_columnar_heap_pages counter in /metrics — with the rows it returned
// before, but for the update.
func TestColumnarHeapPagesObservable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Columnar = true
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (k int, v int)")
	for i := 0; i < 1000; i++ {
		e.MustExec("INSERT INTO t VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i%7)))
	}
	e.MustExec("ANALYZE t")
	const q = "SELECT t.k, t.v FROM t WHERE t.k >= 90 AND t.k < 110"
	analyze := func(want string) {
		t.Helper()
		r := e.MustExec("EXPLAIN ANALYZE " + q)
		if !strings.Contains(r.Plan, "ColScan(t)") || !strings.Contains(r.Plan, want) {
			t.Fatalf("EXPLAIN ANALYZE output lacks ColScan(t) or %q:\n%s", want, r.Plan)
		}
	}
	analyze("blocks_skipped=0 blocks_scanned=1 heap_pages=0")
	e.MustExec("UPDATE t SET v = 100 WHERE k = 100")
	analyze("blocks_skipped=0 blocks_scanned=1 heap_pages=1")
	if v := e.Metrics.Counter("rqp_columnar_heap_pages").Value(); v != 1 {
		t.Fatalf("rqp_columnar_heap_pages = %d, want 1", v)
	}
	r := e.MustExec(q)
	if len(r.Rows) != 20 || r.Rows[10][0].I != 100 || r.Rows[10][1].I != 100 {
		t.Fatalf("after the update the scan returned %d rows, row 10 %v", len(r.Rows), r.Rows[10])
	}
}

// TestMemOvercommitSurfaces: a sort under a starved memory budget
// overcommits via the progress floor; the registry must count it.
func TestMemOvercommitSurfaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemBudgetRows = 8 // below the 16-row progress floor
	e := Open(cfg)
	e.MustExec("CREATE TABLE s (a int)")
	for i := 0; i < 100; i++ {
		e.MustExec("INSERT INTO s VALUES (?)", types.Int(int64(99-i)))
	}
	e.MustExec("ANALYZE s")
	r := e.MustExec("SELECT a FROM s ORDER BY a")
	if len(r.Rows) != 100 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if v := e.Metrics.Counter("rqp_mem_overcommit_total").Value(); v < 1 {
		t.Fatal("overcommit under a starved budget was not counted")
	}
	if !strings.Contains(e.Metrics.Expose(), "rqp_mem_overcommit_total") {
		t.Fatal("exposition missing overcommit counter")
	}
}

// TestAdmissionControl: a full MPL gate rejects queries and the registry
// counts both outcomes; EXPLAIN ANALYZE traces the admission decision.
func TestAdmissionControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admission = wlm.NewAdmitter(1)
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int)")
	e.MustExec("INSERT INTO t VALUES (1), (2), (3)")
	e.MustExec("ANALYZE t")

	r := e.MustExec("EXPLAIN ANALYZE SELECT a FROM t")
	if r.Trace.CountEvents("wlm.admission") != 1 {
		t.Fatal("admission decision not traced")
	}

	// Hold the only slot: the next query must be rejected.
	cfg.Admission.TryAdmit()
	if _, err := e.Exec("SELECT a FROM t"); err == nil || !strings.Contains(err.Error(), "admission rejected") {
		t.Fatalf("expected admission rejection, got %v", err)
	}
	cfg.Admission.Done()
	if _, err := e.Exec("SELECT a FROM t"); err != nil {
		t.Fatalf("after release, query must run: %v", err)
	}
	if e.Metrics.Counter("rqp_wlm_rejected_total").Value() != 1 {
		t.Fatal("rejection not counted")
	}
	if e.Metrics.Counter("rqp_wlm_admitted_total").Value() < 2 {
		t.Fatal("admissions not counted")
	}
}

// TestTraceMemEvents: a traced query whose sort takes memory grants logs
// mem.grant/mem.release events.
func TestTraceMemEvents(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("EXPLAIN ANALYZE SELECT salary FROM emp ORDER BY salary")
	if r.Trace.CountEvents("mem.grant") < 1 {
		t.Fatal("no mem.grant events traced")
	}
	if r.Trace.CountEvents("mem.release") < 1 {
		t.Fatal("no mem.release events traced")
	}
}

// spillEngine builds an engine whose join build side dwarfs the configured
// memory budget. budget <= 0 means unlimited.
func spillEngine(t *testing.T, budget, dop int) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	if budget > 0 {
		cfg.MemBudgetRows = budget
	}
	cfg.DOP = dop
	e := Open(cfg)
	e.MustExec("CREATE TABLE bld (k int, v int)")
	e.MustExec("CREATE TABLE prb (k int, w int)")
	for i := 0; i < 800; i++ {
		e.MustExec("INSERT INTO bld VALUES (?, ?)", types.Int(int64(i%130)), types.Int(int64(i)))
	}
	for i := 0; i < 400; i++ {
		e.MustExec("INSERT INTO prb VALUES (?, ?)", types.Int(int64(i%130)), types.Int(int64(i)))
	}
	e.MustExec("ANALYZE bld")
	e.MustExec("ANALYZE prb")
	return e
}

func sortedRowText(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestExplainAnalyzeShowsSpill: a hash join whose build side is ~8x the
// memory budget spills, stays correct against an unlimited-budget run at
// DOP 1 and 4, and EXPLAIN ANALYZE surfaces the partitions and recursion
// depth in its event log.
func TestExplainAnalyzeShowsSpill(t *testing.T) {
	const q = "SELECT bld.v, prb.w FROM bld JOIN prb ON bld.k = prb.k"
	want := sortedRowText(spillEngine(t, 0, 1).MustExec(q).Rows)
	for _, dop := range []int{1, 4} {
		e := spillEngine(t, 100, dop) // build side 800 rows: ~8x the budget
		got := sortedRowText(e.MustExec(q).Rows)
		if len(got) != len(want) {
			t.Fatalf("dop=%d: %d rows under pressure, want %d", dop, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("dop=%d: row %d = %q, want %q", dop, i, got[i], want[i])
			}
		}
		r := e.MustExec("EXPLAIN ANALYZE " + q)
		if r.Trace.CountEvents("spill.partition") < 1 {
			t.Fatalf("dop=%d: no spill.partition events traced", dop)
		}
		if !strings.Contains(r.Plan, "spill.partition") || !strings.Contains(r.Plan, "depth=") {
			t.Fatalf("dop=%d: EXPLAIN ANALYZE output missing spill events:\n%s", dop, r.Plan)
		}
		if e.Metrics.Counter("rqp_spill_partitions_total").Value() < 1 {
			t.Fatalf("dop=%d: spill partitions not counted in registry", dop)
		}
		if !strings.Contains(e.Metrics.Expose(), "rqp_spill_pages_written_total") {
			t.Fatalf("dop=%d: exposition missing spill counters", dop)
		}
	}
}

// TestMemScheduleInjection: a declining memory schedule shrinks the budget
// between grants mid-query; results stay identical to the unlimited run.
func TestMemScheduleInjection(t *testing.T) {
	const q = "SELECT bld.k, COUNT(*), SUM(bld.v) FROM bld JOIN prb ON bld.k = prb.k GROUP BY bld.k"
	want := sortedRowText(spillEngine(t, 0, 1).MustExec(q).Rows)
	e := spillEngine(t, 0, 1)
	e.Cfg.MemSchedule = wlm.DecliningMemory(2048, 48, 6)
	got := sortedRowText(e.MustExec(q).Rows)
	if len(got) != len(want) {
		t.Fatalf("%d rows under shrinking budget, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMemPoolAttachesQueries: with admission and a memory pool configured,
// each admitted query's broker is attached to the pool and the share is
// traced.
func TestMemPoolAttachesQueries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admission = wlm.NewAdmitter(4)
	cfg.MemPoolRows = 500
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int)")
	e.MustExec("INSERT INTO t VALUES (1), (2), (3)")
	e.MustExec("ANALYZE t")
	r := e.MustExec("EXPLAIN ANALYZE SELECT a FROM t ORDER BY a")
	if r.Trace.CountEvents("wlm.mem") != 1 {
		t.Fatal("memory pool attach not traced")
	}
	found := false
	for _, ev := range r.Trace.Events() {
		if ev.Kind == "wlm.mem" && strings.Contains(ev.Detail, "pool=500 share=500") {
			found = true
		}
	}
	if !found {
		t.Fatalf("wlm.mem event missing pool/share detail: %v", r.Trace.Events())
	}
}
