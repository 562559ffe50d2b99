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
		{"drain", func() ([]types.Row, error) { return drain(&seqScan{ctx: NewContext(), node: scan}) }},
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

func TestAllocCeilingHashBuild(t *testing.T) {
	cat := allocCatalog(t)
	_, join := allocJoinPlan(t, cat)
	n := tableRows(t, cat, "orders")
	builds := map[string]func(){
		"serial": func() { // hashJoin: drained into the table, then indexed
			ctx := NewContext()
			right, err := build(join.Kids[1], ctx)
			if err != nil {
				t.Fatal(err)
			}
			b := hashBuild{ctx: ctx, node: join}
			if err := b.openSerial(right); err != nil {
				t.Fatal(err)
			}
			if b.spill != nil || b.tab.rows.n != int(n) {
				t.Fatalf("built %d rows, spill=%v", b.tab.rows.n, b.spill != nil)
			}
			b.release()
		},
		"dop2": func() { // parallelHashJoin: drain, then hashing in morsels
			ctx := NewContext()
			ctx.DOP = 2
			right, err := build(join.Kids[1], ctx)
			if err != nil {
				t.Fatal(err)
			}
			pj := &parallelHashJoin{hashBuild: hashBuild{ctx: ctx, node: join}, right: right}
			if err := pj.openBuild(); err != nil {
				t.Fatal(err)
			}
			if pj.spill != nil || pj.tab.rows.n != int(n) {
				t.Fatalf("built %d rows, spill=%v", pj.tab.rows.n, pj.spill != nil)
			}
			pj.release()
		},
	}
	for name, fn := range builds {
		allocs := testing.AllocsPerRun(5, fn)
		if per := allocs / n; per > maxAllocsPerBuildRow {
			t.Errorf("%s build of %v rows: %v allocations, %.4f per row (ceiling %v)", name, n, allocs, per, maxAllocsPerBuildRow)
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
			scan.Columnar, scan.Prop.Parallel = columnar, dop > 1
			_, bytes := measureAllocs(func() {
				ctx := NewContext()
				ctx.DOP = dop
				op, err := build(scan, ctx)
				if err != nil {
					t.Fatal(err)
				}
				tab, err := drainTable(op)
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
// the root drain — on the row and DOP-2 paths. Beyond the build's
// allowance, everything is amortised over the probe rows.
func TestAllocCeilingJoin(t *testing.T) {
	cat := allocCatalog(t)
	nBuild, nProbe := tableRows(t, cat, "orders"), tableRows(t, cat, "lineitem")
	ceiling := maxAllocsPerBuildRow*nBuild + (maxAllocsPerProbeRow+maxAllocsPerDrainRow)*nProbe
	for _, tc := range []struct {
		name string
		mark func(plan.Node)
		ctx  func() *Context
	}{
		{"row", func(plan.Node) {}, NewContext},
		{"dop2", func(n plan.Node) { plan.MarkParallel(n, 1) }, func() *Context {
			ctx := NewContext()
			ctx.DOP = 2
			return ctx
		}},
	} {
		root, _ := allocJoinPlan(t, cat)
		tc.mark(root)
		allocs := testing.AllocsPerRun(5, func() {
			rows, err := Run(root, tc.ctx())
			if err != nil || float64(len(rows)) != nProbe {
				t.Fatalf("%s: %d rows, %v", tc.name, len(rows), err)
			}
		})
		t.Logf("%s: %v allocations for %v ⋈ %v rows", tc.name, allocs, nBuild, nProbe)
		if allocs > ceiling {
			t.Errorf("%s join: %v allocations, ceiling %v (%v/build row + %v/probe row + %v/result row)",
				tc.name, allocs, ceiling, maxAllocsPerBuildRow, maxAllocsPerProbeRow, maxAllocsPerDrainRow)
		}
	}
}

// TestAllocCeilingProbe isolates the probe loop: once a prober exists,
// probing allocates nothing at all, matches or not.
func TestAllocCeilingProbe(t *testing.T) {
	cat := allocCatalog(t)
	_, join := allocJoinPlan(t, cat)
	ctx := NewContext()
	right, err := build(join.Kids[1], ctx)
	if err != nil {
		t.Fatal(err)
	}
	probeRows, err := Run(join.Kids[0], NewContext())
	if err != nil {
		t.Fatal(err)
	}
	b := hashBuild{ctx: ctx, node: join}
	if err := b.openSerial(right); err != nil {
		t.Fatal(err)
	}
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
			if dop > 1 {
				plan.MarkParallel(root, 1)
			}
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
