package rqp

// The benchmark harness: one testing.B benchmark per reproduced figure,
// table or proposed benchmark of the Dagstuhl report (E1–E18; see DESIGN.md
// for the index), plus engine micro-benchmarks. Experiment benchmarks run
// the full workload once per iteration at a reduced scale and report the
// experiment's headline numbers as custom metrics, so `go test -bench .`
// regenerates every result with both wall-clock and simulated-cost views.

import (
	"fmt"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/experiments"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

const benchScale = 0.25

func benchExperiment(b *testing.B, id string) {
	run := experiments.Registry()[id]
	if run == nil {
		b.Fatalf("experiment %s missing", id)
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		rep, err := run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.KV
	}
	for k, v := range last {
		b.ReportMetric(v, k)
	}
}

// Figures 1–3: POP customer-workload reproduction.
func BenchmarkE1POPAggregate(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2POPSpeedups(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3POPScatter(b *testing.B)   { benchExperiment(b, "E3") }

// Breakout-session metrics and benchmarks.
func BenchmarkE4RiskMetrics(b *testing.B)    { benchExperiment(b, "E4") }
func BenchmarkE5Smoothness(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6CardErrGeomean(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Equivalence(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8TractorPull(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9Extrinsic(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10FMT(b *testing.B)           { benchExperiment(b, "E10") }
func BenchmarkE11FPT(b *testing.B)           { benchExperiment(b, "E11") }
func BenchmarkE12AdvisorRobust(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkE13Cracking(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14TPCCH(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15BlackHat(b *testing.B)      { benchExperiment(b, "E15") }
func BenchmarkE16GJoin(b *testing.B)         { benchExperiment(b, "E16") }
func BenchmarkE17Eddy(b *testing.B)          { benchExperiment(b, "E17") }
func BenchmarkE18Rio(b *testing.B)           { benchExperiment(b, "E18") }

// Extensions (reading-list techniques + the Section-1 anecdote).
func BenchmarkE19SelfTuningHistogram(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20SharedScans(b *testing.B)         { benchExperiment(b, "E20") }
func BenchmarkE21AutomaticDisaster(b *testing.B)   { benchExperiment(b, "E21") }
func BenchmarkE22UtilityInterference(b *testing.B) { benchExperiment(b, "E22") }

// ---------- engine micro-benchmarks ----------

func benchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

func BenchmarkParseSelect(b *testing.B) {
	q := workload.TPCHQueries()["Q5"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBindAndOptimizeQ5(b *testing.B) {
	cat := benchCatalog(b)
	o := opt.New(cat)
	st, err := sql.Parse(workload.TPCHQueries()["Q5"])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := o.Optimize(bq, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteQ1(b *testing.B) {
	cat := benchCatalog(b)
	o := opt.New(cat)
	st, _ := sql.Parse(workload.TPCHQueries()["Q1"])
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		b.Fatal(err)
	}
	root, err := o.Optimize(bq, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := exec.NewContext()
		if _, err := exec.Run(root, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinExecution(b *testing.B) {
	cat := catalog.New()
	l, _ := cat.CreateTable("l", types.Schema{{Name: "k", Kind: types.KindInt}})
	r, _ := cat.CreateTable("r", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}})
	for i := 0; i < 20000; i++ {
		cat.Insert(nil, l, types.Row{types.Int(int64(i % 2000))})
	}
	for i := 0; i < 2000; i++ {
		cat.Insert(nil, r, types.Row{types.Int(int64(i)), types.Int(int64(i * 2))})
	}
	cat.AnalyzeTable(l, 16)
	cat.AnalyzeTable(r, 16)
	o := opt.New(cat)
	st, _ := sql.Parse("SELECT COUNT(*) FROM l, r WHERE l.k = r.k")
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		b.Fatal(err)
	}
	root, err := o.Optimize(bq, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(root, exec.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoinNarrowBuild is TPC-H-lite Q5 on heap scans at DOP 1: six
// tables, five hash joins, and a lineitem build side of which the query
// mentions 3 of 8 columns. -benchmem shows what the builds retain: rows as
// wide as the query behind indexes cut once.
func BenchmarkHashJoinNarrowBuild(b *testing.B) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	root := parallelBenchPlan(b, cat, workload.TPCHQueries()["Q5"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(root, exec.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCHStatementBytes prints what one execution of each of the
// benchmark's join statements allocates (B/op), as the server runs them: the
// benchmark's catalog (scale 8, its three indexes, analyzed), plans from the
// plan cache, rows streamed to a sink that keeps none, under the default
// configuration (analytic_row) and under DOP 2 + columnar + runtime filters
// (analytic_fast). The bytes are the build sides and exchanges, which are as
// wide as what is read above them.
func BenchmarkTPCHStatementBytes(b *testing.B) {
	fast := core.DefaultConfig()
	fast.DOP, fast.Columnar, fast.RuntimeFilters = 2, true, true
	for _, c := range []struct {
		name string
		cfg  core.Config
	}{{"default", core.DefaultConfig()}, {"fast", fast}} {
		cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		eng := core.Attach(cat, c.cfg)
		eng.Cache = core.NewPlanCache(0)
		for _, ddl := range []string{
			`CREATE UNIQUE INDEX orders_pk ON orders (o_orderkey)`,
			`CREATE UNIQUE INDEX customer_pk ON customer (c_custkey)`,
			`CREATE INDEX lineitem_order ON lineitem (l_orderkey)`,
			`ANALYZE orders`, `ANALYZE customer`, `ANALYZE lineitem`,
		} {
			eng.MustExec(ddl)
		}
		for _, name := range []string{"Q3", "Q5", "Q10"} {
			q := workload.TPCHQueries()[name]
			b.Run(name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := -1; i < b.N; i++ {
					if i == 0 {
						b.ResetTimer() // the first execution planned
					}
					if _, err := eng.ExecStream(q, nil, discardRows{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

type discardRows struct{}

func (discardRows) Columns([]string)    {}
func (discardRows) Row(types.Row) error { return nil }

// ---------- morsel-driven parallel execution ----------

// parallelBenchCatalog builds a fact table large enough for many scan
// morsels plus a dimension to join against.
func parallelBenchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	f, _ := cat.CreateTable("f", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "g", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	d, _ := cat.CreateTable("d", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	const factRows, dimRows = 120000, 8000
	for i := 0; i < factRows; i++ {
		cat.Insert(nil, f, types.Row{
			types.Int(int64(i % dimRows)), types.Int(int64(i % 31)), types.Int(int64(i)),
		})
	}
	for i := 0; i < dimRows; i++ {
		cat.Insert(nil, d, types.Row{types.Int(int64(i)), types.Int(int64(i * 3))})
	}
	cat.AnalyzeTable(f, 16)
	cat.AnalyzeTable(d, 16)
	return cat
}

func parallelBenchPlan(b *testing.B, cat *catalog.Catalog, q string) plan.Node {
	b.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		b.Fatal(err)
	}
	root, err := opt.New(cat).Optimize(bq, nil)
	if err != nil {
		b.Fatal(err)
	}
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			j.Alg = plan.JoinHash
		}
	})
	return root
}

// benchParallelQuery measures one query at DOP 1/2/4/8.
func benchParallelQuery(b *testing.B, cat *catalog.Catalog, q string) {
	root := parallelBenchPlan(b, cat, q)
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := exec.NewContext()
				ctx.DOP = dop
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelScan(b *testing.B) {
	cat := parallelBenchCatalog(b)
	benchParallelQuery(b, cat, `SELECT f.v FROM f WHERE f.v < 90000`)
}

func BenchmarkParallelHashJoin(b *testing.B) {
	cat := parallelBenchCatalog(b)
	benchParallelQuery(b, cat, `SELECT COUNT(*) FROM f, d WHERE f.k = d.id`)
}

// aggBenchQueries are the grouping benchmarks' two ends: 31 groups of 120 000
// rows, where a group's state is noise beside the per-morsel bookkeeping, and
// 8 000 (each met by nearly every morsel), where bytes per group are the bill.
var aggBenchQueries = []struct{ name, sql string }{
	{"low", `SELECT f.g, COUNT(*), SUM(f.v) FROM f GROUP BY f.g`},
	{"high", `SELECT f.k, COUNT(*), SUM(f.v) FROM f GROUP BY f.k`},
}

func BenchmarkParallelAgg(b *testing.B) {
	cat := parallelBenchCatalog(b)
	for _, q := range aggBenchQueries {
		b.Run(q.name, func(b *testing.B) { benchParallelQuery(b, cat, q.sql) })
	}
}

// BenchmarkParallelPipeline is the fused morsel pipeline end to end:
// TPC-H-lite Q3 over columnar snapshots — scan → probe → probe → aggregate —
// drained by one worker (dop1) and by two (dop2). -benchmem shows what a
// statement allocates: the pipeline copies its build sides once and nothing
// per probe row.
func BenchmarkParallelPipeline(b *testing.B) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"customer", "orders", "lineitem"} {
		t, _ := cat.Table(name)
		cat.BuildColumnar(t, storage.DefaultColBlock)
	}
	for _, dop := range []int{1, 2} {
		b.Run(fmt.Sprintf("dop%d", dop), func(b *testing.B) {
			root := parallelBenchPlan(b, cat, workload.TPCHQueries()["Q3"])
			plan.Walk(root, func(n plan.Node) {
				if sc, ok := n.(*plan.ScanNode); ok {
					sc.Columnar = true
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := exec.NewContext()
				ctx.DOP = dop
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColScanAfterDML is the columnar scan on the write axis: a range
// read of orders at scale 8 with 0, 1%, 10% and 100% of its pages written
// since the snapshot was built (one row per page updated to itself). The scan
// stays columnar at every rung; changed pages are read from the heap at a
// heap scan's charges, so units/op climbs from the columnar price to the
// heap's.
func BenchmarkColScanAfterDML(b *testing.B) {
	const q = `SELECT orders.o_custkey, orders.o_totalprice FROM orders
		WHERE orders.o_orderdate >= DATE(8500) AND orders.o_orderdate < DATE(8530)`
	for _, pct := range []int{0, 1, 10, 100} {
		b.Run(fmt.Sprintf("changed=%d%%", pct), func(b *testing.B) {
			cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			orders, _ := cat.Table("orders")
			cat.BuildColumnar(orders, storage.DefaultColBlock)
			npages := orders.Heap.NumPages()
			n := (pct*npages + 99) / 100
			for j := 0; j < n; j++ {
				var rid storage.RID
				var buf, row types.Row
				orders.Heap.ScanPage(nil, j*npages/n, nil, &buf, func(id storage.RID, r types.Row) bool {
					rid, row = id, r.Clone() // r is lent: valid until the callback returns
					return false
				})
				cat.UpdateRows(nil, orders, []storage.RID{rid}, row)
			}
			root := parallelBenchPlan(b, cat, q)
			plan.Walk(root, func(n plan.Node) {
				if sc, ok := n.(*plan.ScanNode); ok {
					sc.Columnar = true
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			var units float64
			for i := 0; i < b.N; i++ {
				ctx := exec.NewContext()
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
				units = ctx.Clock.Units()
			}
			b.ReportMetric(units, "units/op")
		})
	}
}

// BenchmarkColScanConjuncts is the columnar scan's filter cascade at the
// benchmark's scale (8): htap_mixed's range read of orders, two conjuncts on
// one column that keep about one row in ninety, and Q6's scan of lineitem,
// five conjuncts on three columns. Each reports ns, B and allocs per
// statement and its simulated units.
func BenchmarkColScanConjuncts(b *testing.B) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"orders", "lineitem"} {
		t, _ := cat.Table(name)
		cat.BuildColumnar(t, storage.DefaultColBlock)
	}
	for _, c := range []struct{ name, sql string }{
		{"range", `SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders
			WHERE o_orderdate >= DATE(8500) AND o_orderdate < DATE(8530) GROUP BY o_custkey ORDER BY o_custkey`},
		{"q6", workload.TPCHQueries()["Q6"]},
	} {
		b.Run(c.name, func(b *testing.B) {
			root := parallelBenchPlan(b, cat, c.sql)
			plan.Walk(root, func(n plan.Node) {
				if sc, ok := n.(*plan.ScanNode); ok {
					sc.Columnar = true
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			var units float64
			for i := 0; i < b.N; i++ {
				ctx := exec.NewContext()
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
				units = ctx.Clock.Units()
			}
			b.ReportMetric(units, "units/op")
		})
	}
}

// ---------- one worker ----------

// benchSerialQuery measures one query at DOP 1.
func benchSerialQuery(b *testing.B, q string) {
	root := parallelBenchPlan(b, parallelBenchCatalog(b), q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(root, exec.NewContext()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialFilter(b *testing.B) {
	benchSerialQuery(b, `SELECT f.v FROM f WHERE f.v < 90000`)
}

func BenchmarkSerialProject(b *testing.B) {
	benchSerialQuery(b, `SELECT f.v + f.g, f.v * 2 FROM f WHERE f.v < 90000`)
}

func BenchmarkSerialAgg(b *testing.B) {
	for _, q := range aggBenchQueries {
		b.Run(q.name, func(b *testing.B) { benchSerialQuery(b, q.sql) })
	}
}

// ---------- runtime join filters ----------

// runtimeFilterCatalog builds a fact table with unique keys 0..factRows-1
// and a dim holding dimRows of them, spread across the whole key domain so
// the filter's min/max bounds cannot shortcut the Bloom test.
func runtimeFilterCatalog(b *testing.B, factRows, dimRows int) *catalog.Catalog {
	b.Helper()
	cat := catalog.New()
	f, _ := cat.CreateTable("f", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	d, _ := cat.CreateTable("d", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	for i := 0; i < factRows; i++ {
		cat.Insert(nil, f, types.Row{types.Int(int64(i)), types.Int(int64(i % 97))})
	}
	for i := 0; i < dimRows; i++ {
		cat.Insert(nil, d, types.Row{types.Int(int64(i * factRows / dimRows)), types.Int(int64(i % 11))})
	}
	cat.AnalyzeTable(f, 16)
	cat.AnalyzeTable(d, 16)
	return cat
}

// runtimeFilterPlan hand-builds fact-probe-side hash join so the benchmark
// measures exactly the shape plan.PlanRuntimeFilters targets, independent
// of join-order choices.
func runtimeFilterPlan(cat *catalog.Catalog, dimRows int) plan.Node {
	fact, _ := cat.Table("f")
	dim, _ := cat.Table("d")
	mkScan := func(t *catalog.Table, alias string) *plan.ScanNode {
		s := &plan.ScanNode{Table: t, Alias: alias}
		s.Out = t.Schema.WithTable(alias)
		s.Title = "SeqScan(" + alias + ")"
		s.Prop = plan.Props{EstRows: float64(t.Heap.NumRows())}
		return s
	}
	l, r := mkScan(fact, "f"), mkScan(dim, "d")
	j := &plan.JoinNode{Alg: plan.JoinHash, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	j.Kids = []plan.Node{l, r}
	j.Out = l.Out.Concat(r.Out)
	j.Title = "HashJoin"
	j.Prop = plan.Props{EstRows: float64(dimRows)}
	return j
}

// benchRuntimeFilterJoin measures the join with and without runtime
// filters, reporting simulated cost for each.
func benchRuntimeFilterJoin(b *testing.B, factRows, dimRows int) {
	cat := runtimeFilterCatalog(b, factRows, dimRows)
	b.Run("unfiltered", func(b *testing.B) {
		root := runtimeFilterPlan(cat, dimRows)
		var cost float64
		for i := 0; i < b.N; i++ {
			ctx := exec.NewContext()
			if _, err := exec.Run(root, ctx); err != nil {
				b.Fatal(err)
			}
			cost = ctx.Clock.Units()
		}
		b.ReportMetric(cost, "cost_units")
	})
	b.Run("filtered", func(b *testing.B) {
		root := runtimeFilterPlan(cat, dimRows)
		if sites, _ := opt.New(cat).CreditRuntimeFilters(root); sites == 0 {
			b.Fatal("no runtime-filter sites planted")
		}
		var cost, dropped float64
		for i := 0; i < b.N; i++ {
			ctx := exec.NewContext()
			ctx.RF = exec.NewRuntimeFilterSet(nil)
			if _, err := exec.Run(root, ctx); err != nil {
				b.Fatal(err)
			}
			var rec obs.QueryRecord
			ctx.Record(&rec)
			cost, dropped = rec.Cost, float64(rec.RFDropped)
		}
		b.ReportMetric(cost, "cost_units")
		b.ReportMetric(dropped, "rows_dropped")
	})
}

// BenchmarkRuntimeFilterSelective: under 1% of probe rows survive — the
// filter should cut simulated cost by at least 2x.
func BenchmarkRuntimeFilterSelective(b *testing.B) {
	benchRuntimeFilterJoin(b, 120000, 1000)
}

// BenchmarkRuntimeFilterNonSelective: every probe row survives — adaptive
// disable must keep the overhead within 10% of the unfiltered run.
func BenchmarkRuntimeFilterNonSelective(b *testing.B) {
	benchRuntimeFilterJoin(b, 120000, 120000)
}

func BenchmarkInsertWithIndex(b *testing.B) {
	cat := catalog.New()
	t, _ := cat.CreateTable("t", types.Schema{{Name: "id", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}})
	if _, err := cat.CreateIndex(nil, "t", "t_id", []string{"id"}, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.Insert(nil, t, types.Row{types.Int(int64(i)), types.Int(int64(i % 97))})
	}
}

func BenchmarkProgressiveVsStatic(b *testing.B) {
	// Head-to-head of the two execution policies on a trapped query — the
	// ablation behind Figures 1–3, as a single measurable pair.
	cfg := workload.DefaultStar()
	cfg.FactRows = 10000
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		b.Fatal(err)
	}
	query := `SELECT dim1.cat, COUNT(*) FROM fact, dim1
		WHERE fact.d1 = dim1.id AND fact.attr = 37 AND fact.pseudo = 111
		GROUP BY dim1.cat`
	for _, cfg := range []struct {
		name   string
		policy core.ExecPolicy
	}{
		{"classic", core.PolicyClassic},
		{"pop", core.PolicyPOP},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				st, _ := sql.Parse(query)
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					b.Fatal(err)
				}
				if cost, _, err = runPolicy(cat, cfg.policy, bq); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost, "cost_units")
		})
	}
}

// runPolicy executes bq under policy through the engine's policy-to-executor
// code — POP's progressive executor, or the one plan the policy chooses — and
// returns the cost and the re-optimizations.
func runPolicy(cat *catalog.Catalog, policy core.ExecPolicy, bq *plan.Query) (float64, int, error) {
	o, ctx := opt.New(cat), exec.NewContext()
	if prog := policy.Progressive(o); prog != nil {
		res, err := prog.Execute(bq, ctx)
		if err != nil {
			return 0, 0, err
		}
		return ctx.Clock.Units(), res.Reopts, nil
	}
	root, _, err := policy.Plan(o, bq, nil)
	if err != nil {
		return 0, 0, err
	}
	_, err = exec.Run(root, ctx)
	return ctx.Clock.Units(), 0, err
}
