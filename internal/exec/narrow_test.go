package exec

import (
	"fmt"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// narrowCatalog is chainCatalog with li and ord physically partitioned on
// their join key (four shards, so a sharded li ⋈ ord co-locates on the heap)
// and an index on cust.c for index nested-loop joins.
func narrowCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := chainCatalog(t)
	for _, name := range []string{"li", "ord"} {
		tb, _ := cat.Table(name)
		if err := cat.PartitionTable(tb, "o", 4); err != nil {
			t.Fatal(err)
		}
		cat.BuildColumnar(tb, 256) // partitioning dropped the snapshot
	}
	if _, err := cat.CreateIndex(nil, "cust", "cust_c", []string{"c"}, false); err != nil {
		t.Fatal(err)
	}
	return cat
}

// narrowShapes are the query shapes the narrow ≡ full-width property runs.
var narrowShapes = []struct {
	name, sql string
	indexNL   bool // plan with index nested-loop joins only
}{
	{"chain-agg", `SELECT ord.o, COUNT(*), SUM(li.v) FROM cust, ord, li
		WHERE cust.seg = 1 AND cust.c = ord.c AND li.o = ord.o AND ord.d < 400 GROUP BY ord.o`, false},
	{"chain-rows", `SELECT li.v, ord.d, cust.seg, nat.r FROM cust, ord, li, nat
		WHERE cust.c = ord.c AND li.o = ord.o AND cust.n = nat.n AND li.g < 5`, false},
	{"left-outer", `SELECT li.v, ord.d, cust.seg FROM li LEFT JOIN ord ON li.o = ord.o LEFT JOIN cust ON ord.c = cust.c
		WHERE li.g < 3`, false},
	{"residual", `SELECT li.v, ord.d, cust.seg FROM cust, ord, li
		WHERE cust.c = ord.c AND li.o = ord.o AND li.v < ord.d * 6`, false},
	// li.g and ord.c are read by the scans' filters and by nothing above.
	{"filter-only", `SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 5 AND ord.c > 3`, false},
	// Neither side partitioned on the key: sharded, the probe scan's rows are
	// routed through the exchange, which keeps them.
	{"routed", `SELECT ord.d, cust.seg FROM ord, cust WHERE ord.c = cust.c`, false},
	{"index-nl", `SELECT ord.d, cust.seg FROM ord, cust WHERE ord.c = cust.c AND cust.n > 2`, true},
	// COUNT(*) mentions no column: zero-width rows from the scan on.
	{"count", `SELECT COUNT(*) FROM li`, false},
	{"count-cross", `SELECT COUNT(*) FROM cust, nat`, false},
	// What only a join's projection can get wrong. Every key is shed by the
	// join that matched it: a zero-width join output.
	{"count-join", `SELECT COUNT(*) FROM li, ord WHERE li.o = ord.o`, false},
	// A build side that is itself a projecting join, under another.
	{"nested-build", `SELECT li.v, nat.r FROM nat, cust, ord, li
		WHERE cust.n = nat.n AND cust.c = ord.c AND li.o = ord.o AND cust.seg < 4`, false},
	// The residual reads li.v and ord.d; the output keeps neither.
	{"residual-shed", `SELECT cust.seg, li.g FROM cust, ord, li
		WHERE cust.c = ord.c AND li.o = ord.o AND li.v < ord.d * 6`, false},
	// ord.o is matched below and grouped on above: it must survive the join.
	{"key-is-group-key", `SELECT ord.o, cust.seg, COUNT(*) FROM cust, ord, li
		WHERE cust.c = ord.c AND li.o = ord.o GROUP BY ord.o, cust.seg`, false},
	// An outer join over a projecting join: its ON reads ord.c, which the
	// core keeps for it and nothing reads after; and one whose ON carries a
	// residual over two columns the output drops.
	{"left-outer-above", `SELECT li.v, cust.seg FROM li, ord LEFT JOIN cust ON ord.c = cust.c
		WHERE li.o = ord.o AND li.g < 5`, false},
	{"left-outer-residual", `SELECT li.g, ord.c FROM li LEFT JOIN ord ON li.o = ord.o AND li.v < ord.d * 4
		WHERE li.g < 4`, false},
}

// narrowPlans plans q twice with one optimizer: through Optimize — scans as
// wide as the query — and through OptimizeJoinGraph + FinishPlan, the same
// enumeration and finishing with no needed-column set, so every scan emits
// its whole table.
func narrowPlans(t testing.TB, cat *catalog.Catalog, q string, indexNL bool) (narrow, full plan.Node) {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	o := opt.New(cat)
	if indexNL {
		o.Opt.Joins = 1 << plan.JoinIndexNL
	}
	if narrow, err = o.Optimize(bq, nil); err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	core, cols, err := o.OptimizeJoinGraph(opt.BaseRelsFromQuery(bq), bq.Conjuncts, nil)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	if full, err = o.FinishPlan(bq, core, cols); err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return narrow, full
}

// narrowedScans counts the access paths of a plan that emit fewer columns
// than their table has.
func narrowedScans(root plan.Node) int {
	n := 0
	plan.Walk(root, func(nd plan.Node) {
		switch v := nd.(type) {
		case *plan.ScanNode:
			if v.Cols != nil {
				n++
			}
		case *plan.IndexScanNode:
			if v.Cols != nil {
				n++
			}
		case *plan.IndexJoinNode:
			if v.Cols != nil {
				n++
			}
		}
	})
	return n
}

// projectingJoins counts the joins of a plan that emit fewer columns than
// their two inputs hold.
func projectingJoins(root plan.Node) int {
	n := 0
	plan.Walk(root, func(nd plan.Node) {
		if j, ok := nd.(*plan.JoinNode); ok && j.Cols != nil {
			n++
		}
	})
	return n
}

// TestNarrowPlanMatchesFullWidth is the narrowing's exactness property: the
// plan whose every node emits only what something above it reads returns
// byte-identical rows to the same plan with every node at full width, at the
// integer-exact same cost on the heap (a columnar scan decodes fewer columns,
// so there the cost may only fall) — across heap/columnar × runtime filters ×
// DOP {1, 2, 8} × unsharded and four shards routed as planned (co-located
// where the layout allows), repartitioned and broadcast × budgets {unlimited,
// tight}, with every producer's previous row poisoned. (The same over
// transport=tcp: server.TestNetShuffleNarrowPlans.)
func TestNarrowPlanMatchesFullWidth(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	cat := narrowCatalog(t)
	type outcome struct {
		rows      string
		cost      int64
		disabled  int64
		colocated int64
	}
	forced := map[string]plan.ShuffleMode{"repartition": plan.ShuffleRepartition, "broadcast": plan.ShuffleBroadcast}
	run := func(root plan.Node, cell string, columnar, rf bool, dop int, shuffle string, budget int) outcome {
		plan.Walk(root, func(n plan.Node) {
			switch v := n.(type) {
			case *plan.JoinNode:
				if len(v.LeftKeys) > 0 {
					v.Alg = plan.JoinHash
				}
			case *plan.ScanNode:
				v.Columnar = columnar
			}
		})
		ctx := NewContext()
		ctx.DOP, ctx.Mem = dop, NewMemBroker(budget)
		if rf {
			plan.PlanRuntimeFilters(root)
			ctx.RF = NewRuntimeFilterSet(nil)
		}
		if shuffle != "unsharded" {
			opt.PlanShuffles(root, 4, forced[shuffle]) // "planned": the costed choice
			ctx.Shards, ctx.Shuffle = 4, NewShuffleStats(4)
		}
		rows, err := Run(root, ctx)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if in := ctx.Mem.InUse(); in != 0 {
			t.Errorf("%s: %d workspace rows still granted", cell, in)
		}
		out := outcome{rows: rowsJoined(rows), cost: ctx.Clock.UnitsScaled(), colocated: ctx.Shuffle.Snapshot().ColocatedJoins}
		if ctx.RF != nil {
			_, _, _, out.disabled = ctx.RF.Snapshot()
		}
		return out
	}
	var colocated int64
	projecting := 0
	for _, sh := range narrowShapes {
		n, f := narrowPlans(t, cat, sh.sql, sh.indexNL)
		if narrowedScans(n) == 0 || narrowedScans(f)+projectingJoins(f) != 0 {
			t.Fatalf("%s: %d narrowed access paths in the narrow plan, %d (and %d projecting joins) in the full-width one:\n%s",
				sh.name, narrowedScans(n), narrowedScans(f), projectingJoins(f), plan.Explain(n))
		}
		projecting += projectingJoins(n)
		for _, columnar := range []bool{false, true} {
			for _, rf := range []bool{false, true} {
				for _, dop := range []int{1, 2, 8} {
					for _, shuffle := range []string{"unsharded", "planned", "repartition", "broadcast"} {
						for _, budget := range []int{1 << 30, 64} {
							cell := fmt.Sprintf("%s columnar=%v rf=%v dop=%d %s budget=%d", sh.name, columnar, rf, dop, shuffle, budget)
							narrow, full := narrowPlans(t, cat, sh.sql, sh.indexNL)
							got := run(narrow, cell+" narrow", columnar, rf, dop, shuffle, budget)
							want := run(full, cell+" full", columnar, rf, dop, shuffle, budget)
							colocated += got.colocated
							if got.rows != want.rows {
								t.Errorf("%s: rows diverge from the full-width plan", cell)
							}
							if got.disabled != 0 || want.disabled != 0 {
								continue // a filter that disables itself races between workers
							}
							if got.cost != want.cost && (!columnar || got.cost > want.cost) {
								t.Errorf("%s: cost %d, full-width %d", cell, got.cost, want.cost)
							}
						}
					}
				}
			}
		}
	}
	if colocated == 0 {
		t.Error("no cell ran a co-located join: the per-shard build scans went untested")
	}
	if projecting < 12 {
		t.Errorf("only %d projecting joins in the narrow plans", projecting)
	}
}

// TestShardedBuildScanCopiesLentRows: a join planned co-located whose layout
// no longer matches at Open repartitions, draining the build side through
// its own scan — whose rows are lent, so the join must copy what it keeps.
func TestShardedBuildScanCopiesLentRows(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	cat := narrowCatalog(t)
	const q = `SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 5`
	want, err := Run(parallelPlanFor(t, cat, q), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	root := parallelPlanFor(t, cat, q)
	opt.PlanShuffles(root, 4, plan.ShuffleNone)
	var join *plan.JoinNode
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			join = j
		}
	})
	if join.Shuffle != plan.ShuffleColocated || narrowedScans(root) != 2 {
		t.Fatalf("want a co-located join of two narrowed scans, got %v:\n%s", join.Shuffle, plan.Explain(root))
	}
	ctx := NewContext()
	ctx.Shards, ctx.Shuffle = 2, NewShuffleStats(2) // the tables are partitioned four ways
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap := ctx.Shuffle.Snapshot(); snap.ColocatedJoins != 0 || snap.RepartitionJoins != 1 {
		t.Fatalf("the join did not fall back to repartitioning: %+v", snap)
	}
	if rowsJoined(rows) != rowsJoined(want) {
		t.Error("rows diverge from the serial run: the build kept lent rows")
	}
}

// TestColocatedValidMapsKeyThroughCols: a join key is an ordinal of the
// scan's output, the partitioning a table column. li and ord are partitioned
// on their column 0; a join of li.g with ord.c — ordinal 0 of two scans that
// do not emit column 0 — is not co-located, whatever the plan says.
func TestColocatedValidMapsKeyThroughCols(t *testing.T) {
	cat := narrowCatalog(t)
	const q = `SELECT li.v, ord.d FROM li, ord WHERE li.g = ord.c`
	want, err := Run(parallelPlanFor(t, cat, q), NewContext())
	if err != nil {
		t.Fatal(err)
	}
	root := parallelPlanFor(t, cat, q)
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			if j.LeftKeys[0] != 0 || j.RightKeys[0] != 0 || narrowedScans(j) != 2 {
				t.Fatalf("want a join on ordinal 0 of two narrowed scans:\n%s", plan.Explain(root))
			}
			j.Shuffle = plan.ShuffleColocated
		}
	})
	ctx := NewContext()
	ctx.Shards, ctx.Shuffle = 4, NewShuffleStats(4)
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap := ctx.Shuffle.Snapshot(); snap.ColocatedJoins != 0 || snap.RepartitionJoins != 1 {
		t.Errorf("a join on columns the tables are not partitioned on ran co-located: %+v", snap)
	}
	if rowsJoined(rows) != rowsJoined(want) {
		t.Error("rows diverge from the serial run")
	}
}

// TestIndexNLJoinLeftOuterPadsInnerWidth: the outer row of an unmatched
// probe is padded by the width the join's inner side emits — its Cols — not
// by the table's.
func TestIndexNLJoinLeftOuterPadsInnerWidth(t *testing.T) {
	cat := narrowCatalog(t)
	ord, _ := cat.Table("ord")
	cust, _ := cat.Table("cust")
	scan := &plan.ScanNode{Table: ord, Alias: "ord", Cols: []int{1, 2}}
	scan.Out = types.Schema{ord.Schema[1], ord.Schema[2]}
	j := &plan.IndexJoinNode{Type: plan.LeftOuter, Table: cust, Alias: "cust", Index: cust.IndexOn(0),
		Cols: []int{2}, LeftKeys: []int{0}}
	j.Kids = []plan.Node{scan}
	j.Out = scan.Out.Concat(types.Schema{cust.Schema[2]})
	rows, err := Run(j, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	matched, padded := 0, 0
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("row %v is %d wide, the join's schema 3", r, len(r))
		}
		if r[2].IsNull() {
			padded++
		} else {
			matched++
		}
	}
	if matched == 0 || padded == 0 || int64(len(rows)) != ord.Heap.NumRows() {
		t.Errorf("%d matched and %d null-extended rows for %d orders", matched, padded, ord.Heap.NumRows())
	}
}

// TestRowSetCutsIndexOnce: the rows come back in order, clipped, whatever
// their number — and zero-width rows (COUNT(*) mentions no column) are still
// counted, which is all a build's grant and an exchange need of them.
func TestRowSetCutsIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 3 * arenaMaxChunk} {
		var set, empty RowSet
		src := types.Row{types.Int(0), types.Str("x")}
		for i := 0; i < n; i++ {
			src[0] = types.Int(int64(i))
			set.add(src)
			empty.add(src[:0])
		}
		rows := set.Rows()
		if len(rows) != n || len(empty.Rows()) != n {
			t.Fatalf("%d rows in: %d out, %d zero-width out", n, len(rows), len(empty.Rows()))
		}
		for i, r := range rows {
			if len(r) != 2 || cap(r) != 2 || r[0].I != int64(i) || r[1].S != "x" {
				t.Fatalf("row %d of %d: %v (cap %d)", i, n, r, cap(r))
			}
		}
	}
}
