package exec

import (
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// Allocation ceilings of the join and materialisation kernel, on TPC-H-lite
// orders ⋈ lineitem (1 500 build rows, 6 000 probe and output rows). The
// numbers are ceilings, not measurements: the kernel allocates per chunk,
// per table and per morsel, never per row, so every ratio sits an order of
// magnitude under its pin and a per-row allocation sneaking back in (a
// Row.Clone, a key slice, a bucket append) breaks the pin at once.
const (
	maxAllocsPerBuildRow = 0.1
	maxAllocsPerProbeRow = 0.05
	maxAllocsPerDrainRow = 0.05
)

const allocJoinQuery = `SELECT o_orderkey, o_totalprice, l_quantity, l_extendedprice
	FROM lineitem, orders WHERE l_orderkey = o_orderkey`

func allocCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// allocJoinPlan plans the join with orders as the build side.
func allocJoinPlan(t *testing.T, cat *catalog.Catalog) (root plan.Node, join *plan.JoinNode) {
	t.Helper()
	root = parallelPlanFor(t, cat, allocJoinQuery)
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			join = j
		}
	})
	if join == nil {
		t.Fatal("no join in plan")
	}
	if sc, ok := join.Kids[1].(*plan.ScanNode); !ok || sc.Table.Name != "orders" {
		t.Fatalf("build side is not a scan of orders:\n%s", plan.Explain(root))
	}
	return root, join
}

func tableRows(t *testing.T, cat *catalog.Catalog, name string) float64 {
	t.Helper()
	tab, ok := cat.Table(name)
	if !ok {
		t.Fatalf("no table %s", name)
	}
	return float64(tab.Heap.NumRows())
}

func TestAllocCeilingDrain(t *testing.T) {
	cat := allocCatalog(t)
	li, _ := cat.Table("lineitem")
	scan := &plan.ScanNode{Base: plan.Base{Out: li.Schema}, Table: li}
	n := tableRows(t, cat, "lineitem")
	for _, tc := range []struct {
		name string
		run  func() ([]types.Row, error)
	}{
		{"drain", func() ([]types.Row, error) {
			op, err := build(scan, NewContext())
			if err != nil {
				return nil, err
			}
			return drain(op)
		}},
		{"Run", func() ([]types.Row, error) { return Run(scan, NewContext()) }},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			rows, err := tc.run()
			if err != nil || float64(len(rows)) != n {
				t.Fatalf("%s: %d rows, %v", tc.name, len(rows), err)
			}
		})
		if per := allocs / n; per > maxAllocsPerDrainRow {
			t.Errorf("%s of %v rows: %v allocations, %.4f per row (ceiling %v)", tc.name, n, allocs, per, maxAllocsPerDrainRow)
		}
	}
}

// erectBuild opens join's build as its pipeline stage does at ctx's DOP.
func erectBuild(t *testing.T, ctx *Context, join *plan.JoinNode) *joinStage {
	t.Helper()
	s := &joinStage{ctx: ctx, node: join}
	if err := s.side(join.Kids[1]); err != nil {
		t.Fatal(err)
	}
	if err := s.openBuild(); err != nil {
		t.Fatal(err)
	}
	return s
}

// drainTable drains the plan n into a table yet to be indexed, as a hash join
// drains its build side: straight into the table at one worker, through an
// exchange at more.
func drainTable(ctx *Context, n plan.Node) (*joinTable, error) {
	s := &joinStage{ctx: ctx}
	if err := s.side(n); err != nil {
		return nil, err
	}
	return s.drainBuild()
}

func TestAllocCeilingHashBuild(t *testing.T) {
	cat := allocCatalog(t)
	_, join := allocJoinPlan(t, cat)
	n := tableRows(t, cat, "orders")
	for _, dop := range []int{1, 2} { // drained into the table, then hashed in morsels
		allocs := testing.AllocsPerRun(5, func() {
			ctx := NewContext()
			ctx.DOP = dop
			b := erectBuild(t, ctx, join)
			if b.spill != nil || b.tab.rows.n != int(n) {
				t.Fatalf("built %d rows, spill=%v", b.tab.rows.n, b.spill != nil)
			}
			b.release()
		})
		if per := allocs / n; per > maxAllocsPerBuildRow {
			t.Errorf("dop=%d build of %v rows: %v allocations, %.4f per row (ceiling %v)", dop, n, allocs, per, maxAllocsPerBuildRow)
		}
	}
}

// TestAllocCeilingNarrowBuild pins what a retained build side costs in bytes:
// N rows of which the query mentions k of W columns are held as N×k packed
// values — 9 B each, 16 B more for a string — drained straight into the
// table: no 40 B types.Value, no row header, no N×W. A build over an exchange
// (DOP 2) holds them once more, in the workers' stores. A quarter on top
// covers the last chunk's spare room and the scan's per-block scratch. The
// race detector drops pooled scratch and allocates it anew, so under it only
// the counts are checked.
func TestAllocCeilingNarrowBuild(t *testing.T) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	li, _ := cat.Table("lineitem")
	cat.BuildColumnar(li, 1024)
	root := parallelPlanFor(t, cat, `SELECT l_orderkey, l_suppkey, l_extendedprice FROM lineitem`)
	var scan *plan.ScanNode
	plan.Walk(root, func(n plan.Node) {
		if sc, ok := n.(*plan.ScanNode); ok {
			scan = sc
		}
	})
	n, k := float64(li.Heap.NumRows()), float64(len(scan.Cols))
	if k != 3 || len(li.Schema) != 8 {
		t.Fatalf("scan emits %v of %d columns, want 3 of 8", scan.Cols, len(li.Schema))
	}
	for _, columnar := range []bool{false, true} {
		for _, dop := range []int{1, 2} {
			scan.Columnar = columnar
			_, bytes := measureAllocs(func() {
				ctx := NewContext()
				ctx.DOP = dop
				tab, err := drainTable(ctx, scan)
				if err != nil || float64(tab.rows.n) != n || tab.rows.w != 3 {
					t.Fatalf("columnar=%v dop=%d: %d rows of %d values, %v", columnar, dop, tab.rows.n, tab.rows.w, err)
				}
			})
			ceiling := 1.25 * float64(dop) * n * k * packedValue
			t.Logf("columnar=%v dop=%d: %.0f B, %.2f per value", columnar, dop, bytes, bytes/(n*k))
			if !raceBuild && bytes > ceiling {
				t.Errorf("columnar=%v dop=%d: a build of %v rows × %v of 8 columns allocates %.0f B, ceiling %.0f", columnar, dop, n, k, bytes, ceiling)
			}
		}
	}
}

// TestAllocCeilingJoin runs the whole join — build, probe, projection and
// the root drain — at DOP 1 and 2. Beyond the build's
// allowance, everything is amortised over the probe rows.
func TestAllocCeilingJoin(t *testing.T) {
	cat := allocCatalog(t)
	nBuild, nProbe := tableRows(t, cat, "orders"), tableRows(t, cat, "lineitem")
	ceiling := maxAllocsPerBuildRow*nBuild + (maxAllocsPerProbeRow+maxAllocsPerDrainRow)*nProbe
	root, _ := allocJoinPlan(t, cat)
	for _, dop := range []int{1, 2} {
		allocs := testing.AllocsPerRun(5, func() {
			ctx := NewContext()
			ctx.DOP = dop
			rows, err := Run(root, ctx)
			if err != nil || float64(len(rows)) != nProbe {
				t.Fatalf("dop=%d: %d rows, %v", dop, len(rows), err)
			}
		})
		t.Logf("dop=%d: %v allocations for %v ⋈ %v rows", dop, allocs, nBuild, nProbe)
		if allocs > ceiling {
			t.Errorf("dop=%d join: %v allocations, ceiling %v (%v/build row + %v/probe row + %v/result row)",
				dop, allocs, ceiling, maxAllocsPerBuildRow, maxAllocsPerProbeRow, maxAllocsPerDrainRow)
		}
	}
}

// TestAllocCeilingProbe isolates the probe loop: once a prober exists,
// probing allocates nothing at all, matches or not.
func TestAllocCeilingProbe(t *testing.T) {
	cat := allocCatalog(t)
	_, join := allocJoinPlan(t, cat)
	probeRows, err := Run(join.Kids[0], NewContext())
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	b := erectBuild(t, ctx, join)
	defer b.release()
	p := b.prober()
	emitted := 0
	count := func(types.Row) error { emitted++; return nil }
	allocs := testing.AllocsPerRun(3, func() {
		emitted = 0
		for _, lr := range probeRows {
			if err := p.each(ctx.Clock, lr, count); err != nil {
				t.Fatal(err)
			}
		}
	})
	if emitted != len(probeRows) {
		t.Fatalf("probe emitted %d rows for %d probe rows", emitted, len(probeRows))
	}
	if per := allocs / float64(len(probeRows)); per > maxAllocsPerProbeRow {
		t.Errorf("probing %d rows: %v allocations, %.4f per row (ceiling %v)", len(probeRows), allocs, per, maxAllocsPerProbeRow)
	}
}

// TestAllocCeilingMorselLoop: once a worker's chain of probers and its way
// into the sink exist, a morsel allocates nothing. A lineitem scan → probe →
// aggregate and a lineitem scan → exchange allocate as many objects at scale 8
// as at scale 2 — four times the morsels — give or take a few: per worker and
// per stage, never per morsel (a closure a morsel, say, adds hundreds).
func TestAllocCeilingMorselLoop(t *testing.T) {
	if raceBuild {
		t.Skip("under -race pooled scratch is dropped and allocated anew")
	}
	const maxExtra = 16 // objects scale 8 may allocate beyond scale 2
	queries := []struct{ name, sql string }{
		// Build on the orders a filter keeps (the same hundred at any scale),
		// probe with every lineitem row, three groups.
		{"scan→probe→aggregate", `SELECT l_returnflag, COUNT(*) FROM lineitem, orders
			WHERE l_orderkey = o_orderkey AND o_orderkey < 100 GROUP BY l_returnflag`},
		{"scan→exchange", `SELECT l_orderkey FROM lineitem WHERE l_quantity < 2`},
	}
	var objects [2][2][2]float64 // query, DOP, scale
	for si, scale := range []float64{2, 8} {
		cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: scale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			root := parallelPlanFor(t, cat, q.sql)
			if j := chainOf(root); qi == 0 && (len(j) != 1 || j[0].Kids[0].(*plan.ScanNode).Table.Name != "lineitem") {
				t.Fatalf("%s: want lineitem probing one join:\n%s", q.name, plan.Explain(root))
			}
			for di, dop := range []int{1, 2} {
				objects[qi][di][si], _ = measureAllocs(func() {
					ctx := NewContext()
					ctx.DOP = dop
					if _, _, err := Drain(root, ctx, func(types.Row) error { return nil }); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	for qi, q := range queries {
		for di, dop := range []int{1, 2} {
			at2, at8 := objects[qi][di][0], objects[qi][di][1]
			t.Logf("%s dop=%d: %.0f objects at scale 2, %.0f at scale 8", q.name, dop, at2, at8)
			if at8-at2 > maxExtra {
				t.Errorf("%s dop=%d: %.0f objects at scale 8 against %.0f at scale 2: more than %d per worker and stage, so per morsel",
					q.name, dop, at8, at2, maxExtra)
			}
		}
	}
}

// TestAllocCeilingAggregate pins what grouping costs, scan included. A
// high-cardinality aggregate (a group per four input rows, and per morsel
// about as many partial groups as rows: lineitem is not clustered on its
// order) pays under a tenth of an allocation and a pinned number of bytes per
// group — key, accumulators, stored hash, index and output order, each held
// once, the partials cut to size. A low-cardinality one (three groups) has
// nothing to amortise over its groups: it pays per morsel, so its pins are per
// input row. A per-group struct, a Go map, a per-row key slice or a second
// output slab breaks them at once (PR 22 measured 573 and 1 936 B per group).
func TestAllocCeilingAggregate(t *testing.T) {
	if raceBuild {
		t.Skip("under -race a group's zeroed accumulators are a make of their own")
	}
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nRows := tableRows(t, cat, "lineitem")
	for _, tc := range []struct {
		name, query string
		perRow      bool       // the unit is an input row, not a group
		allocs      float64    // per unit
		bytes       [2]float64 // per unit, at DOP 1 and 2
	}{
		{"high", `SELECT l_orderkey, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_orderkey`, false, 0.1, [2]float64{200, 520}},
		{"low", `SELECT l_returnflag, SUM(l_extendedprice), COUNT(*) FROM lineitem GROUP BY l_returnflag`, true, 0.02, [2]float64{0.5, 2}},
	} {
		for _, dop := range []int{1, 2} {
			root := parallelPlanFor(t, cat, tc.query)
			groups := 0
			allocs, bytes := measureAllocs(func() {
				ctx := NewContext()
				ctx.DOP = dop
				_, n, err := Drain(root, ctx, func(types.Row) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				groups = n
			})
			units, unit := float64(groups), "group"
			if tc.perRow {
				units, unit = nRows, "input row"
			}
			t.Logf("%s dop=%d: %d groups of %v rows: %.0f allocations, %.0f B", tc.name, dop, groups, nRows, allocs, bytes)
			if allocs/units > tc.allocs || bytes/units > tc.bytes[dop-1] {
				t.Errorf("%s dop=%d: %.3f allocations and %.1f B per %s, ceilings %v and %v",
					tc.name, dop, allocs/units, bytes/units, unit, tc.allocs, tc.bytes[dop-1])
			}
		}
	}
}

// TestAllocCeilingColScan: a columnar scan allocates per scan and per worker,
// never per block. Q6 over lineitem snapshots of 512-row blocks — five pushed
// conjuncts ranked, read and evaluated in every block — allocates as many
// objects at scale 8 as at scale 2, four times the blocks, give or take a
// few, and at DOP 2 what one more worker takes (its goroutine, scratch and
// partial aggregate: about twenty objects).
func TestAllocCeilingColScan(t *testing.T) {
	if raceBuild {
		t.Skip("under -race pooled scratch is dropped and allocated anew")
	}
	const maxExtra, maxWorker = 16, 32 // objects scale 8 beyond scale 2; DOP 2 beyond DOP 1
	var objects [2][2]float64          // scale, DOP
	for si, scale := range []float64{2, 8} {
		cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: scale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		li, _ := cat.Table("lineitem")
		cat.BuildColumnar(li, 512)
		root := chainPlan(t, cat, workload.TPCHQueries()["Q6"], true, false)
		plan.Walk(root, func(n plan.Node) {
			if sc, ok := n.(*plan.ScanNode); ok {
				if c := colScannerFor(NewContext(), sc, nil); c == nil || len(c.pushed) != 5 {
					t.Fatalf("scale %v: the lineitem scan does not push Q6's five conjuncts:\n%s", scale, plan.Explain(root))
				}
			}
		})
		for di, dop := range []int{1, 2} {
			objects[si][di], _ = measureAllocs(func() {
				ctx := NewContext()
				ctx.DOP = dop
				if _, _, err := Drain(root, ctx, func(types.Row) error { return nil }); err != nil {
					t.Fatal(err)
				}
				if ctx.ColBlocksScanned == 0 {
					t.Fatalf("scale %v dop %d: no block read", scale, dop)
				}
			})
		}
	}
	t.Logf("objects at scale 2 / 8: dop 1 %.0f / %.0f, dop 2 %.0f / %.0f", objects[0][0], objects[1][0], objects[0][1], objects[1][1])
	for di, dop := range []int{1, 2} {
		if at2, at8 := objects[0][di], objects[1][di]; at8-at2 > maxExtra {
			t.Errorf("dop %d: %.0f objects at scale 8 against %.0f at scale 2: more than %d, so per block", dop, at8, at2, maxExtra)
		}
	}
	for si, scale := range []float64{2, 8} {
		if d := objects[si][1] - objects[si][0]; d > maxWorker || d < 0 {
			t.Errorf("scale %v: %.0f objects at dop 2 against %.0f at dop 1: not one worker's", scale, objects[si][1], objects[si][0])
		}
	}
}

// TestAllocCeilingRuntimeFilter: a hash join derives its runtime filter once,
// from the drained build, at any DOP. At DOP 2 a join whose 20 480-row build
// feeds one filter allocates, over the same run without a filter set, less
// than two filters' bytes: the filter, and the probe scan's view of it —
// not a filter per hashing morsel.
func TestAllocCeilingRuntimeFilter(t *testing.T) {
	if raceBuild {
		t.Skip("under -race pooled scratch is dropped and allocated anew")
	}
	const nBuild = 20480
	cat := catalog.New()
	for _, tb := range []struct {
		name string
		rows int
	}{{"b", nBuild}, {"p", 2 * nBuild}} {
		tab, err := cat.CreateTable(tb.name, types.Schema{{Name: "k", Kind: types.KindInt}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tb.rows; i++ {
			cat.Insert(nil, tab, types.Row{types.Int(int64(i))})
		}
		cat.AnalyzeTable(tab, 4)
	}
	root := chainPlan(t, cat, "SELECT COUNT(*) FROM p, b WHERE p.k = b.k", false, true)
	if j := chainOf(root); len(j) != 1 || len(j[0].RFilters) != 1 || j[0].Kids[1].(*plan.ScanNode).Table.Name != "b" {
		t.Fatalf("want p probing one join that builds on b and feeds one runtime filter:\n%s", plan.Explain(root))
	}
	var bytes [2]float64 // without, with a filter set
	for i, rf := range []bool{false, true} {
		_, bytes[i] = measureAllocs(func() {
			ctx := NewContext()
			ctx.DOP = 2
			if rf {
				ctx.RF = NewRuntimeFilterSet(nil)
			}
			rows, err := Run(root, ctx)
			if err != nil || len(rows) != 1 || rows[0][0].AsInt() != nBuild {
				t.Fatalf("rf=%v: %v, %v", rf, rows, err)
			}
			if !rf {
				return
			}
			if built, tested, _, _ := ctx.RF.Snapshot(); built != 1 || tested == 0 {
				t.Fatalf("%d filters built, %d rows tested; want one, testing the probe scan", built, tested)
			}
		})
	}
	filter := float64(8 * len(newRuntimeFilter(0, nBuild).words))
	t.Logf("%.0f B without a filter set, %.0f B with; a filter is %.0f B", bytes[0], bytes[1], filter)
	if extra := bytes[1] - bytes[0]; extra >= 2*filter {
		t.Errorf("the runtime filter costs %.0f B, ceiling %.0f (two filters of %.0f B)", extra, 2*filter, filter)
	}
}
