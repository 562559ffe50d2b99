package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// chainCatalog builds four tables that read as a snowflake — li → ord → cust
// → nat, Q3 and Q10 in miniature — and, through li's own c and n columns, as
// a star around li: the dimensions then join only through the fact table, so
// the cheapest plan is li probing a chain of single-table builds, whereas the
// snowflake's is li probing a build that is itself a join (nestedQueries).
// Integer data (so SUM merges exactly), NULL join keys, and every foreign key
// covering only part of its parent, so each join's runtime filter drops well
// above the break-even rate and never disables itself (a disable races
// between workers and blurs cost parity). All tables carry columnar snapshots
// with small blocks.
func chainCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, cols []string, rows int, row func(i int) types.Row) {
		schema := make(types.Schema, len(cols))
		for i, c := range cols {
			schema[i] = types.Column{Name: c, Kind: types.KindInt}
		}
		tb, err := cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			cat.Insert(nil, tb, row(i))
		}
		cat.AnalyzeTable(tb, 8)
		cat.BuildColumnar(tb, 256)
	}
	key := func(i, nullEvery int, v int64) types.Value {
		if i%nullEvery == 0 {
			return types.Null()
		}
		return types.Int(v)
	}
	// li.o ranges over 900 order keys, ord holds 600 of them; li.c and li.n
	// range like ord.c and cust.n.
	mk("li", []string{"o", "g", "v", "pad", "c", "n"}, 3000, func(i int) types.Row {
		return types.Row{key(i, 41, int64(i*7%900)), types.Int(int64(i % 7)), types.Int(int64(i)), types.Int(int64(i % 3)),
			key(i, 37, int64(i*11%200)), key(i, 31, int64(i*13%60))}
	})
	// ord.c ranges over 200 customer keys, cust holds 120 of them.
	mk("ord", []string{"o", "c", "d"}, 600, func(i int) types.Row {
		return types.Row{types.Int(int64(i)), key(i, 29, int64(i*11%200)), types.Int(int64(i * 13 % 600))}
	})
	// cust.n ranges over 60 nation keys, nat holds 40 of them (enough rows to
	// spill under a floor grant).
	mk("cust", []string{"c", "n", "seg"}, 120, func(i int) types.Row {
		return types.Row{types.Int(int64(i)), key(i, 17, int64(i%60)), types.Int(int64(i % 5))}
	})
	mk("nat", []string{"n", "r"}, 40, func(i int) types.Row {
		return types.Row{types.Int(int64(i)), types.Int(int64(i % 3))}
	})
	return cat
}

// chainPlan plans q with hash joins and hash aggregation forced, every scan
// on the chosen storage, and runtime filters planted on request.
func chainPlan(t testing.TB, cat *catalog.Catalog, q string, columnar, rf bool) plan.Node {
	t.Helper()
	root := parallelPlanFor(t, cat, q)
	plan.Walk(root, func(n plan.Node) {
		if sc, ok := n.(*plan.ScanNode); ok {
			sc.Columnar = columnar
		}
	})
	if rf {
		plan.PlanRuntimeFilters(root)
	}
	return root
}

// chainOf returns the hash joins a pipeline over root fuses, outermost first:
// the topmost join and every join down its probe side.
func chainOf(root plan.Node) []*plan.JoinNode {
	var top *plan.JoinNode
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok && top == nil {
			top = j
		}
	})
	var chain []*plan.JoinNode
	for j := top; j != nil; j, _ = j.Kids[0].(*plan.JoinNode) {
		chain = append(chain, j)
	}
	return chain
}

var chainQueries = []struct {
	name, sql string
	joins     int  // chain depth the plan must reach for the case to bite
	agg       bool // topped by an aggregation (which takes a grant only at one worker)
}{
	{"q3", `SELECT ord.o, COUNT(*), SUM(li.v) FROM cust, ord, li
		WHERE cust.seg < 4 AND cust.c = li.c AND li.o = ord.o AND ord.d < 400 GROUP BY ord.o`, 2, true},
	{"q3-rows", `SELECT li.v, ord.d, cust.seg FROM cust, ord, li
		WHERE cust.c = li.c AND li.o = ord.o AND ord.d < 400`, 2, false},
	{"q10", `SELECT cust.c, nat.r, COUNT(*), SUM(li.v) FROM cust, ord, li, nat
		WHERE cust.c = li.c AND li.o = ord.o AND li.n = nat.n AND li.g < 5 GROUP BY cust.c, nat.r`, 3, true},
	{"q10-rows", `SELECT li.v, ord.d, cust.seg, nat.r FROM cust, ord, li, nat
		WHERE cust.c = li.c AND li.o = ord.o AND li.n = nat.n AND li.g < 5`, 3, false},
	{"left-outer", `SELECT li.v, ord.d, cust.seg FROM li LEFT JOIN ord ON li.o = ord.o LEFT JOIN cust ON ord.c = cust.c
		WHERE li.g < 3`, 2, false},
	{"residual", `SELECT li.v, ord.d, cust.seg FROM cust, ord, li
		WHERE cust.c = li.c AND li.o = ord.o AND li.v < ord.d * 6`, 2, false},
}

// TestSpillPipelineChainsExact is the pipeline's exactness property: 3- and
// 4-table probe chains (stars of two and three dimensions around li, with and
// without the aggregate on top, one LEFT OUTER, one with a join residual)
// return one worker's rows byte for byte and in order, at its integer-exact
// cost, across heap/columnar × runtime filters × DOP {2, 8} × memory budgets —
// unlimited, tight (every build spills), shrinking mid-query, and the
// schedule under which only the middle build of the chain spills, so the
// chain breaks in two places.
func TestSpillPipelineChainsExact(t *testing.T) {
	cat := chainCatalog(t)
	budgets := []struct {
		name   string
		budget int
		sched  func(step int) int
	}{
		{"unlimited", 1 << 30, nil},
		{"tight", 64, nil},
		{"shrinking", 2048, func(step int) int { return max(2048>>step, 48) }},
		// Grants go outermost build first: starve the second one only.
		{"middle", 1 << 30, func(step int) int {
			if step == 1 {
				return 0
			}
			return 1 << 30
		}},
	}
	type outcome struct {
		rows     string
		cost     float64
		disabled int64
		spilled  int   // builds that spilled (spill.partition events at depth 0)
		grants   []int // the first grants, in order: the builds, outermost first
	}
	run := func(q string, columnar, rf bool, dop int, budget int, sched func(int) int) outcome {
		root := chainPlan(t, cat, q, columnar, rf)
		ctx := NewContext()
		ctx.DOP = dop
		ctx.Mem = NewMemBroker(budget)
		if sched != nil {
			ctx.Mem.SetSchedule(sched)
		}
		if rf {
			ctx.RF = NewRuntimeFilterSet(nil)
		}
		ctx.Trace = obs.NewTrace(ctx.Clock)
		var grants []int
		ctx.Mem.OnEvent = func(kind string, rows, _, _ int) {
			if kind == "grant" {
				grants = append(grants, rows)
			}
		}
		rows, err := Run(root, ctx)
		if err != nil {
			t.Fatalf("%q columnar=%v rf=%v dop=%d budget=%d: %v", q, columnar, rf, dop, budget, err)
		}
		if in := ctx.Mem.InUse(); in != 0 {
			t.Errorf("%q columnar=%v rf=%v dop=%d budget=%d: %d workspace rows still granted", q, columnar, rf, dop, budget, in)
		}
		out := outcome{rows: rowsJoined(rows), cost: ctx.Clock.Units(), grants: grants}
		out.disabled = recorded(ctx).RFDisabled
		for _, e := range ctx.Trace.Events() {
			if e.Kind == "spill.partition" && strings.Contains(e.Detail, " depth=0 ") {
				out.spilled++
			}
		}
		return out
	}
	for _, q := range chainQueries {
		chain := chainOf(chainPlan(t, cat, q.sql, false, false))
		if len(chain) < q.joins {
			t.Fatalf("%s: plan chains %d joins down the probe side, the case needs %d:\n%s",
				q.name, len(chain), q.joins, plan.Explain(chainPlan(t, cat, q.sql, false, false)))
		}
		for _, columnar := range []bool{false, true} {
			for _, rf := range []bool{false, true} {
				for _, b := range budgets {
					cell := fmt.Sprintf("%s columnar=%v rf=%v budget=%s", q.name, columnar, rf, b.name)
					want := run(q.sql, columnar, rf, 1, b.budget, b.sched)
					// The second grant is the second build from the top: the
					// middle one of a three-join chain.
					if b.name == "middle" && (want.spilled != 1 || want.grants[1] != 16) {
						t.Fatalf("%s: want only the second build to spill, got %d spills, grants %v", cell, want.spilled, want.grants)
					}
					if b.name == "tight" && want.spilled == 0 {
						t.Fatalf("%s: nothing spilled", cell)
					}
					var par []outcome
					for _, dop := range []int{2, 8} {
						got := run(q.sql, columnar, rf, dop, b.budget, b.sched)
						par = append(par, got)
						if got.rows != want.rows {
							t.Errorf("%s dop=%d: rows diverge from dop 1", cell, dop)
						}
						if n := len(chain); got.spilled != want.spilled || fmt.Sprint(got.grants[:n]) != fmt.Sprint(want.grants[:n]) {
							t.Errorf("%s dop=%d: %d builds spilled under grants %v, dop 1 %d under %v",
								cell, dop, got.spilled, got.grants[:n], want.spilled, want.grants[:n])
						}
						// One worker's aggregation takes a workspace grant of
						// its own (and spills under a finite budget); the
						// per-morsel partials of more do not, so under
						// pressure an aggregate's cost is only comparable
						// between runs of more than one worker.
						comparable := !q.agg || b.name == "unlimited"
						if comparable && got.disabled == 0 && want.disabled == 0 && got.cost != want.cost {
							t.Errorf("%s dop=%d: cost %v, dop 1 %v", cell, dop, got.cost, want.cost)
						}
					}
					if par[0].disabled == 0 && par[1].disabled == 0 && par[0].cost != par[1].cost {
						t.Errorf("%s: cost %v at dop 2, %v at dop 8", cell, par[0].cost, par[1].cost)
					}
				}
			}
		}
	}
}

// nestedQueries read chainCatalog as the snowflake it also is: cust reaches li
// only through ord (and nat through cust), so the cheapest plan joins the
// dimensions first and li probes that join — a build side that is itself a
// join subtree, the shape a zig-zag enumerator adds to a left-deep one's.
var nestedQueries = []struct {
	name, sql string
	agg       bool
}{
	{"q3", `SELECT ord.o, COUNT(*), SUM(li.v) FROM cust, ord, li
		WHERE cust.seg = 1 AND cust.c = ord.c AND li.o = ord.o AND ord.d < 400 GROUP BY ord.o`, true},
	{"q3-rows", `SELECT li.v, ord.d, cust.seg FROM cust, ord, li
		WHERE cust.c = ord.c AND li.o = ord.o AND ord.d < 400`, false},
	{"q10", `SELECT cust.c, nat.r, COUNT(*), SUM(li.v) FROM cust, ord, li, nat
		WHERE cust.c = ord.c AND li.o = ord.o AND cust.n = nat.n AND li.g < 5 GROUP BY cust.c, nat.r`, true},
	{"q10-rows", `SELECT li.v, ord.d, cust.seg, nat.r FROM cust, ord, li, nat
		WHERE cust.c = ord.c AND li.o = ord.o AND cust.n = nat.n AND li.g < 5`, false},
	{"residual", `SELECT li.v, ord.d, cust.seg FROM cust, ord, li
		WHERE cust.c = ord.c AND li.o = ord.o AND li.v < ord.d * 6`, false},
}

// nestedBuild returns a hash join of root whose build side (Kids[1]) holds a
// join of its own, or nil.
func nestedBuild(root plan.Node) *plan.JoinNode {
	var found *plan.JoinNode
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.JoinNode)
		if !ok || found != nil {
			return
		}
		plan.Walk(j.Kids[1], func(b plan.Node) {
			if _, ok := b.(*plan.JoinNode); ok {
				found = j
			}
		})
	})
	return found
}

// TestNestedBuildExact: a hash join whose build side is a join subtree — a
// pipeline of its own, packed straight into the outer join's table by one
// worker and gathered through an exchange by more — returns one worker's rows
// byte for byte and in order, at its integer-exact cost, at DOP {2, 8}, on the
// heap and on columnar scans with runtime filters, with unlimited workspace
// and under a budget every build exceeds. Nothing stays granted and no temp
// run stays open.
func TestNestedBuildExact(t *testing.T) {
	cat := chainCatalog(t)
	type outcome struct {
		rows     string
		cost     float64
		disabled int64
		spilled  int // partitions
	}
	run := func(q string, columnar bool, dop, budget int) outcome {
		root := chainPlan(t, cat, q, columnar, columnar)
		ctx := NewContext()
		ctx.DOP = dop
		ctx.Mem = NewMemBroker(budget)
		if columnar {
			ctx.RF = NewRuntimeFilterSet(nil)
		}
		pagesBefore := storage.OpenTempPages()
		rows, err := Run(root, ctx)
		cell := fmt.Sprintf("%q columnar=%v dop=%d budget=%d", q, columnar, dop, budget)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if in := ctx.Mem.InUse(); in != 0 {
			t.Errorf("%s: %d workspace rows still granted", cell, in)
		}
		if open := storage.OpenTempPages() - pagesBefore; open != 0 {
			t.Errorf("%s: %d temp-run pages left open", cell, open)
		}
		out := outcome{rows: rowsJoined(rows), cost: ctx.Clock.Units()}
		rec := recorded(ctx)
		out.disabled, out.spilled = rec.RFDisabled, rec.SpillParts
		return out
	}
	for _, q := range nestedQueries {
		if nestedBuild(chainPlan(t, cat, q.sql, false, false)) == nil {
			t.Fatalf("%s: no hash join builds on a join subtree:\n%s", q.name, plan.Explain(chainPlan(t, cat, q.sql, false, false)))
		}
		for _, columnar := range []bool{false, true} {
			for _, budget := range []int{1 << 30, 64} {
				want := run(q.sql, columnar, 1, budget)
				if (want.spilled > 0) != (budget == 64) {
					t.Fatalf("%s columnar=%v budget=%d: %d partitions spilled", q.name, columnar, budget, want.spilled)
				}
				for _, dop := range []int{2, 8} {
					got := run(q.sql, columnar, dop, budget)
					cell := fmt.Sprintf("%s columnar=%v budget=%d dop=%d", q.name, columnar, budget, dop)
					if got.rows != want.rows {
						t.Errorf("%s: rows diverge from dop 1", cell)
					}
					// As in TestSpillPipelineChainsExact: one worker's
					// aggregation takes a grant of its own, the partials none.
					comparable := !q.agg || budget == 1<<30
					if comparable && got.disabled == 0 && want.disabled == 0 && got.cost != want.cost {
						t.Errorf("%s: cost %v, dop 1 %v", cell, got.cost, want.cost)
					}
				}
			}
		}
	}
}

// TestParallelPipelineFusedNodesReportOnce: every node a pipeline fuses —
// the scan and each inner join of a chain — still reports its cardinality
// exactly once (ActualRows, OnActual, span Finish), at one worker and at two,
// equal to what the node returns run as a plan of its own, and its span names
// the operator it fused into instead of a cost.
func TestParallelPipelineFusedNodesReportOnce(t *testing.T) {
	cat := chainCatalog(t)
	for _, q := range chainQueries {
		var want []float64
		plan.Walk(chainPlan(t, cat, q.sql, true, false), func(n plan.Node) {
			rows, err := Run(n, NewContext())
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, float64(len(rows)))
		})
		for _, dop := range []int{1, 2} {
			root := chainPlan(t, cat, q.sql, true, false)
			ctx := NewContext()
			ctx.DOP = dop
			ctx.Trace = obs.NewTrace(ctx.Clock)
			fired := map[plan.Node]int{}
			ctx.OnActual = func(n plan.Node, _ float64) { fired[n]++ }
			if _, err := Run(root, ctx); err != nil {
				t.Fatal(err)
			}
			chain := chainOf(root)
			sink := plan.Node(chain[0])
			fusedWant := map[plan.Node]bool{}
			if q.agg {
				plan.Walk(root, func(n plan.Node) {
					if a, ok := n.(*plan.AggNode); ok {
						sink = a
					}
				})
				fusedWant[chain[0]] = true
			}
			for _, j := range chain[1:] {
				fusedWant[j] = true
			}
			fusedWant[chain[len(chain)-1].Kids[0]] = true // the probe-side scan
			i := 0
			plan.Walk(root, func(n plan.Node) {
				cell := fmt.Sprintf("%s dop=%d: %s", q.name, dop, n.Label())
				if fired[n] != 1 {
					t.Errorf("%s fired OnActual %d times", cell, fired[n])
				}
				if got := n.Props().ActualRows(); got != want[i] {
					t.Errorf("%s actual rows %v, want %v", cell, got, want[i])
				}
				sp := ctx.Trace.SpanOf(n)
				if sp.ActualRows() != want[i] {
					t.Errorf("%s span finished with %v rows, want %v", cell, sp.ActualRows(), want[i])
				}
				into := ""
				if fusedWant[n] {
					into = sink.Label()
				}
				if sp.FusedInto() != into {
					t.Errorf("%s span fused into %q, want %q", cell, sp.FusedInto(), into)
				}
				if into != "" && sp.Cost() != 0 {
					t.Errorf("%s fused carries cost %v of its own", cell, sp.Cost())
				}
				i++
			})
			// One set of worker lines for the whole chain, under the sink's
			// label (none for one worker); the only others are the builds'
			// (hashing passes, build-side scans).
			sinkLines := 0
			for _, e := range ctx.Trace.Events() {
				if e.Kind != "parallel.worker" {
					continue
				}
				if strings.HasPrefix(e.Detail, sink.Label()+" worker=") {
					sinkLines++
				} else if strings.Contains(e.Detail, " probe worker=") {
					t.Errorf("%s dop=%d: a probe of its own inside the chain: %s", q.name, dop, e.Detail)
				}
			}
			wantLines := dop
			if dop == 1 {
				wantLines = 0 // runMorsels runs one worker inline, untraced
			}
			if sinkLines != wantLines {
				t.Errorf("%s dop=%d: %d worker lines for sink %q, want %d", q.name, dop, sinkLines, sink.Label(), wantLines)
			}
			if out := ctx.Trace.Render(); !strings.Contains(out, "fused into "+sink.Label()) {
				t.Errorf("%s dop=%d: EXPLAIN ANALYZE does not say fused:\n%s", q.name, dop, out)
			}
		}
	}
}

// TestColumnarShardedJoinExact fills the gap the lent scan row opened: a
// sharded join's probe route hands each scanned row to the exchange, which
// keeps it, so a columnar probe scan must copy. Columnar × shuffle mode ×
// shards {2, 4} × DOP {1, 2} return the serial heap run's rows at the
// serial columnar run's exact cost.
func TestColumnarShardedJoinExact(t *testing.T) {
	cat := chainCatalog(t)
	for _, q := range []string{
		`SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 5`,
		`SELECT li.v, ord.d FROM li LEFT JOIN ord ON li.o = ord.o`,
		`SELECT ord.c, COUNT(*), SUM(li.v) FROM li, ord WHERE li.o = ord.o GROUP BY ord.c`,
	} {
		heap, err := Run(chainPlan(t, cat, q, false, false), NewContext())
		if err != nil {
			t.Fatal(err)
		}
		sctx := NewContext()
		if _, err := Run(chainPlan(t, cat, q, true, false), sctx); err != nil {
			t.Fatal(err)
		}
		for _, force := range []plan.ShuffleMode{plan.ShuffleRepartition, plan.ShuffleBroadcast} {
			for _, shards := range []int{2, 4} {
				for _, dop := range []int{1, 2} {
					root := chainPlan(t, cat, q, true, false)
					if opt.PlanShuffles(root, shards, force) == 0 {
						t.Fatalf("%q: no join planned for shuffling", q)
					}
					ctx := NewContext()
					ctx.DOP, ctx.Shards, ctx.Shuffle = dop, shards, NewShuffleStats(shards)
					rows, err := Run(root, ctx)
					if err != nil {
						t.Fatalf("%q %s shards=%d dop=%d: %v", q, force, shards, dop, err)
					}
					if rowsJoined(rows) != rowsJoined(heap) {
						t.Errorf("%q %s shards=%d dop=%d: rows diverge from the serial heap run", q, force, shards, dop)
					}
					if ctx.Clock.Units() != sctx.Clock.Units() {
						t.Errorf("%q %s shards=%d dop=%d: cost %v, serial columnar %v", q, force, shards, dop, ctx.Clock.Units(), sctx.Clock.Units())
					}
					if ctx.ColBlocksScanned == 0 {
						t.Errorf("%q %s shards=%d dop=%d: columnar path never engaged", q, force, shards, dop)
					}
				}
			}
		}
	}
}

// measureAllocs reports the objects and bytes one call of fn allocates, on
// one P and after a warm-up call (pools filled, lazy state built).
func measureAllocs(fn func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestAllocCeilingPipeline pins what the fused pipeline costs per row on
// TPC-H-lite, columnar, DOP 2. A scan → probe → probe → aggregate chain
// allocates for its build sides and per morsel, never per probe row: the
// scan lends one scratch row, each probe hands on its reused output row and
// the aggregate folds it in. And a columnar build side is copied once
// between its decoded block and the hash table.
func TestAllocCeilingPipeline(t *testing.T) {
	cat := allocCatalog(t)
	for _, name := range []string{"lineitem", "orders", "supplier"} {
		tb, _ := cat.Table(name)
		cat.BuildColumnar(tb, 1024)
	}
	dop2 := func() *Context {
		ctx := NewContext()
		ctx.DOP = 2
		return ctx
	}
	// A build side of every column, strings included: the workers' stores hold
	// it once and the table once more, each at 9 B a value and 16 B more a
	// string; a quarter on top for the last chunks' spare room. (Measured 1.03
	// of the two copies; a types.Value anywhere in between costs 40 B a value.)
	tb, _ := cat.Table("lineitem")
	scan := &plan.ScanNode{Base: plan.Base{Out: tb.Schema}, Table: tb, Columnar: true}
	perRow := 0.0
	for _, col := range tb.Schema {
		if perRow += packedValue; col.Kind == types.KindString {
			perRow += 16
		}
	}
	_, buildSide := measureAllocs(func() {
		tab, err := drainTable(dop2(), scan)
		if err != nil || float64(tab.rows.n) != tableRows(t, cat, "lineitem") {
			t.Fatalf("drained %d rows of lineitem, %v", tab.rows.n, err)
		}
	})
	rowBytes := 2 * tableRows(t, cat, "lineitem") * perRow
	t.Logf("lineitem as a build side: %.0f bytes, %.2f × its rows held twice", buildSide, buildSide/rowBytes)
	if !raceBuild && buildSide > 1.25*rowBytes {
		t.Errorf("lineitem as a build side: %.0f bytes allocated, %.2f × its rows held twice (ceiling 1.25)", buildSide, buildSide/rowBytes)
	}

	// The chain: what it allocates beyond erecting its two builds is
	// amortised over the probe rows.
	const (
		maxObjectsPerProbeRow = maxAllocsPerProbeRow // per morsel and per query, never per row
		maxBytesPerProbeRow   = 128                  // measured 3.1 (41.6 under the race detector); the parent's slab row alone was 320
	)
	// A star: orders and supplier join only through lineitem.
	const q = `SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM supplier, orders, lineitem
		WHERE s_nationkey < 10 AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
		AND o_orderdate < DATE(9200) GROUP BY l_returnflag`
	mk := func() plan.Node { return chainPlan(t, cat, q, true, false) }
	chain := chainOf(mk())
	if sc, ok := chain[len(chain)-1].Kids[0].(*plan.ScanNode); len(chain) != 2 || !ok || sc.Table.Name != "lineitem" {
		t.Fatalf("want lineitem probing a chain of two joins:\n%s", plan.Explain(mk()))
	}
	root := mk()
	objects, bytes := measureAllocs(func() {
		if rows, err := Run(root, dop2()); err != nil || len(rows) == 0 {
			t.Fatalf("%d rows, %v", len(rows), err)
		}
	})
	var buildObjects, buildBytes float64
	for _, j := range chain {
		o, b := measureAllocs(func() { erectBuild(t, dop2(), j).release() })
		buildObjects, buildBytes = buildObjects+o, buildBytes+b
	}
	n := tableRows(t, cat, "lineitem")
	perRowObjects, perRowBytes := (objects-buildObjects)/n, (bytes-buildBytes)/n
	t.Logf("chain: %.0f objects / %.0f bytes, builds %.0f / %.0f: %.4f objects and %.1f bytes per probe row",
		objects, bytes, buildObjects, buildBytes, perRowObjects, perRowBytes)
	if perRowObjects > maxObjectsPerProbeRow || perRowBytes > maxBytesPerProbeRow {
		t.Errorf("chain beyond its build sides: %.4f objects and %.1f bytes per probe row (ceilings %v and %v)",
			perRowObjects, perRowBytes, maxObjectsPerProbeRow, maxBytesPerProbeRow)
	}
}

// TestAllocCeilingNestedBuild: a build side that is itself a join runs as a
// pipeline of its own. One worker packs the probe's reused output row straight
// into the hash table above — one copy at 9 B a value; more pack it into their
// stores through an exchange and the table packs it once more — two, exactly
// as for a build that is a scan.
func TestAllocCeilingNestedBuild(t *testing.T) {
	// Scale 4 (6 000 build rows): under the race detector a pooled block
	// scratch is sometimes dropped and reallocated, a fixed number of bytes
	// that must stay small beside the rows.
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lineitem", "orders", "customer"} {
		tb, _ := cat.Table(name)
		cat.BuildColumnar(tb, 1024)
	}
	// Two payload columns of each dimension, so the build rows are wide enough
	// for a second copy to stand out from the per-row overheads — and no wider
	// than what is read above the inner join: of the eight columns its inputs
	// hold it sheds o_custkey, c_custkey (its own keys) and c_nationkey.
	const q = `SELECT l_quantity, o_orderdate, o_totalprice, c_mktsegment, c_acctbal
		FROM customer, orders, lineitem WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey`
	root := chainPlan(t, cat, q, true, false)
	j := nestedBuild(root)
	if j == nil {
		t.Fatalf("no hash join builds on a join subtree:\n%s", plan.Explain(root))
	}
	inner := j.Kids[1].(*plan.JoinNode)
	if got := inner.Schema(); len(got) != 5 || inner.Cols == nil {
		t.Fatalf("the inner join emits %v (Cols %v), want o_orderkey and the four payload columns", got, inner.Cols)
	}
	for _, dop := range []int{1, 2} {
		erect := func(j *plan.JoinNode) (rows int, bytes float64) {
			_, bytes = measureAllocs(func() {
				ctx := NewContext()
				ctx.DOP = dop
				b := erectBuild(t, ctx, j)
				rows = b.tab.rows.n
				b.release()
			})
			return rows, bytes
		}
		_, innerBytes := erect(inner)
		n, bytes := erect(j)
		// Beyond the inner join's own build: the rows once per copy — 9 B a
		// value, 16 B more for the one string column — with a quarter on top
		// for the last chunks' spare room, and 28 B of hashes, links and
		// buckets a row. Measured 167 B a row at two copies against this 180;
		// a third copy, or one types.Value a value anywhere on the way, adds 61
		// or more. Under the race detector (pooled scratch dropped and
		// reallocated) only the rows are counted.
		rowBytes := float64(len(inner.Schema())*packedValue + 16)
		got, ceiling := (bytes-innerBytes)/float64(n), float64(dop)*1.25*rowBytes+28
		t.Logf("dop=%d: %d-row, %d-column nested build: %.0f bytes beyond its inner build's %.0f, %.0f B a row of %.0f packed", dop, n, len(inner.Schema()), bytes-innerBytes, innerBytes, got, rowBytes)
		if n == 0 || (!raceBuild && got > ceiling) {
			t.Errorf("dop=%d: nested build of %d rows: %.0f B a row allocated (ceiling %.0f): held more than %d times, or not packed", dop, n, got, ceiling, dop)
		}
	}
}
