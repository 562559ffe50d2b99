package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// colTestBlock keeps blocks small so a 2000-row table has enough of them
// for zone-map skipping and morsel scheduling to be exercised for real.
const colTestBlock = 128

// colTestCatalog builds fact (clustered ints, wide rle runs, dictionary
// strings, a NULL-bearing raw column) and dim (join partner), analyzed and
// with columnar snapshots attached.
func colTestCatalog(t *testing.T, factRows, dimRows int, rng *rand.Rand) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	f, err := cat.CreateTable("fact", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
		{Name: "nn", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < factRows; i++ {
		nn := types.Int(rng.Int63n(50))
		if rng.Intn(6) == 0 {
			nn = types.Null()
		}
		cat.Insert(nil, f, types.Row{
			types.Int(int64(i)),
			types.Int(int64(i*16/factRows) * 1000000),
			types.Str(fmt.Sprintf("g%02d", i*20/factRows)),
			nn,
		})
	}
	d, err := cat.CreateTable("dim", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dimRows; i++ {
		cat.Insert(nil, d, types.Row{types.Int(int64(i * factRows / dimRows)), types.Int(int64(i % 5))})
	}
	cat.AnalyzeTable(f, 8)
	cat.AnalyzeTable(d, 8)
	cat.BuildColumnar(f, colTestBlock)
	cat.BuildColumnar(d, colTestBlock)
	return cat
}

// colMkPlan parses, binds and optimizes q, forces hash joins, and when
// columnar is set flips every scan to the columnar path (the optimizer has
// already narrowed each to the columns q mentions).
func colMkPlan(t *testing.T, cat *catalog.Catalog, q string, columnar bool) plan.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	root, err := opt.New(cat).Optimize(bq, nil)
	if err != nil {
		t.Fatalf("optimize %q: %v", q, err)
	}
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			j.Alg = plan.JoinHash
		}
		if s, ok := n.(*plan.ScanNode); ok {
			s.Columnar = columnar
		}
	})
	return root
}

func colRun(t *testing.T, root plan.Node, dop, mem int, rf bool) (float64, []string, *Context) {
	t.Helper()
	ctx := NewContext()
	if dop > 1 {
		ctx.DOP = dop
	}
	if mem > 0 {
		ctx.Mem = NewMemBroker(mem)
	}
	if rf {
		ctx.RF = NewRuntimeFilterSet(nil)
	}
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		out[i] = strings.Join(vals, ",")
	}
	sort.Strings(out)
	return ctx.Clock.Units(), out, ctx
}

// TestColumnarMatchesHeapEverywhere is the tentpole's result-equivalence
// property: for randomized predicates over every encoding (packed, rle,
// dict, NULL-bearing raw), the columnar path must return byte-identical
// rows to the heap path across DOP 1/2/8 and memory budgets — including
// join queries where runtime filters prune at block granularity.
func TestColumnarMatchesHeapEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cat := colTestCatalog(t, 2000, 200, rng)

	queries := []string{
		"SELECT fact.k, fact.s FROM fact WHERE fact.k < 130",
		"SELECT fact.k, fact.grp FROM fact WHERE fact.grp <= 3000000",
		"SELECT fact.k FROM fact WHERE fact.s = 'g07'",
		"SELECT fact.k, fact.nn FROM fact WHERE fact.nn >= 25",
		"SELECT fact.k FROM fact WHERE fact.k >= 500 AND fact.s < 'g15' AND fact.nn <> 7",
		"SELECT fact.k, fact.s, fact.nn FROM fact WHERE fact.grp = 999",
		"SELECT fact.k, dim.w FROM fact, dim WHERE fact.k = dim.k AND fact.grp < 9000000",
	}
	configs := []struct {
		name string
		dop  int
	}{
		{"dop1", 1},
		{"dop2", 2},
		{"dop8", 8},
	}
	for _, q := range queries {
		isJoin := strings.Contains(q, "dim")
		for _, mem := range []int{0, 48} {
			for _, cfg := range configs {
				_, want, _ := colRun(t, colMkPlan(t, cat, q, false), cfg.dop, mem, false)

				root := colMkPlan(t, cat, q, true)
				rf := false
				if isJoin {
					rf = plan.PlanRuntimeFilters(root) > 0
				}
				_, got, ctx := colRun(t, root, cfg.dop, mem, rf)
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("%s mem=%d diverges on %q: got %d rows, want %d",
						cfg.name, mem, q, len(got), len(want))
				}
				if len(want) > 0 && len(want) < 1500 && ctx.ColBlocksSkipped == 0 && ctx.ColBlocksScanned == 0 {
					t.Fatalf("%s mem=%d on %q: columnar path never engaged", cfg.name, mem, q)
				}
			}
		}
	}
}

// TestColumnarCostParityAcrossVariants is the cost-identity property: the
// columnar scan must charge the exact same simulated units at every DOP —
// the per-block charge multiset is identical, so shard-merged clocks
// telescope to the serial total. It holds again with changed pages and a
// tail, whose heap charges land in the block or tail morsel that reads them.
func TestColumnarCostParityAcrossVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cat := colTestCatalog(t, 2000, 200, rng)
	queries := []string{
		"SELECT fact.k, fact.s FROM fact WHERE fact.k < 700",
		"SELECT fact.k, fact.nn FROM fact WHERE fact.nn >= 10 AND fact.grp <= 12000000",
		"SELECT fact.k FROM fact WHERE fact.s = 'g03'",
	}
	parity := func(step string) {
		for _, q := range queries {
			rowUnits, rowRows, _ := colRun(t, colMkPlan(t, cat, q, true), 1, 0, false)

			for _, dop := range []int{2, 8} {
				units, rows, _ := colRun(t, colMkPlan(t, cat, q, true), dop, 0, false)
				if strings.Join(rowRows, ";") != strings.Join(rows, ";") {
					t.Fatalf("%s: dop %d results diverge on %q", step, dop, q)
				}
				if units != rowUnits {
					t.Fatalf("%s: dop %d cost parity broken on %q: %v vs serial %v", step, dop, q, units, rowUnits)
				}
			}
		}
	}
	parity("snapshot as built")

	f, _ := cat.Table("fact")
	for _, rid := range ridsWhere(f, func(rid storage.RID, _ types.Row) bool { return rid.Page()%5 == 2 && rid.Slot() == 9 }) {
		r, _ := f.Heap.Get(nil, rid)
		nr := r.Clone()
		nr[3] = types.Int(11)
		cat.Update(nil, f, rid, nr)
	}
	for i := int64(0); i < 700; i++ {
		cat.Insert(nil, f, factRow(3000+i))
	}
	parity("changed pages and a tail")
}

// TestColumnarCostParityWithRuntimeFilterDisable pins the hardest case: a
// non-selective runtime filter that disables itself mid-query on a columnar
// scan, leaving the rows those of the unfiltered run.
func TestColumnarCostParityWithRuntimeFilterDisable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	// dim holds (nearly) every fact key: drop rate ~0, disable fires.
	cat := colTestCatalog(t, 2000, 1900, rng)
	q := "SELECT fact.k, dim.w FROM fact, dim WHERE fact.k = dim.k"

	mk := func() plan.Node {
		root := colMkPlan(t, cat, q, true)
		if n := plan.PlanRuntimeFilters(root); n != 1 {
			t.Fatalf("planted %d runtime filters, want 1", n)
		}
		return root
	}
	_, rowRows, rowCtx := colRun(t, mk(), 1, 0, true)
	if _, tested, _, disabled := rowCtx.RF.Snapshot(); tested == 0 || disabled != 1 {
		t.Fatalf("filter did not disable mid-query: tested=%d disabled=%d", tested, disabled)
	}

	// And unfiltered results agree.
	_, baseRows, _ := colRun(t, colMkPlan(t, cat, q, true), 1, 0, false)
	if strings.Join(baseRows, ";") != strings.Join(rowRows, ";") {
		t.Fatal("runtime filter changed columnar results")
	}
}

// TestColumnarOptimizerChoosesColScan: with Options.Columnar on and a
// columnar snapshot present, a selective pushable predicate must make the
// optimizer pick the ColScan access path and credit the zone-map savings
// into the plan's estimated cost.
func TestColumnarOptimizerChoosesColScan(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cat := colTestCatalog(t, 2000, 200, rng)

	optimize := func(q string, columnar bool) plan.Node {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.New(cat)
		o.Opt.Columnar = columnar
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	q := "SELECT fact.k FROM fact WHERE fact.k < 100"
	var colScans, seqScans int
	var colCost, seqCost float64
	plan.Walk(optimize(q, true), func(n plan.Node) {
		if s, ok := n.(*plan.ScanNode); ok && s.Columnar {
			colScans++
			colCost = s.Prop.EstCost
		}
	})
	plan.Walk(optimize(q, false), func(n plan.Node) {
		if s, ok := n.(*plan.ScanNode); ok && !s.Columnar {
			seqScans++
			seqCost = s.Prop.EstCost
		}
	})
	if colScans != 1 || seqScans != 1 {
		t.Fatalf("colScans=%d seqScans=%d, want 1 and 1", colScans, seqScans)
	}
	if colCost <= 0 || colCost >= seqCost {
		t.Fatalf("ColScan estimate %v not credited below SeqScan estimate %v", colCost, seqCost)
	}
}

// factRow is a fact row for key k, shaped like colTestCatalog's.
func factRow(k int64) types.Row {
	return types.Row{types.Int(k), types.Int(k / 125 * 1000000), types.Str(fmt.Sprintf("g%02d", k/50%100)), types.Int(k % 50)}
}

// ridsWhere lists the RIDs of t's live rows that keep accepts, in heap order.
func ridsWhere(t *catalog.Table, keep func(storage.RID, types.Row) bool) []storage.RID {
	var out []storage.RID
	t.Heap.Scan(nil, func(rid storage.RID, r types.Row) bool {
		if keep(rid, r) {
			out = append(out, rid)
		}
		return true
	})
	return out
}

// dmlRun runs root and returns its rows in order, its cost and its context.
func dmlRun(t *testing.T, root plan.Node, dop int, rf bool) (string, float64, *Context) {
	t.Helper()
	ctx := NewContext()
	ctx.DOP = dop
	if rf {
		ctx.RF = NewRuntimeFilterSet(nil)
	}
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rowsJoined(rows), ctx.Clock.Units(), ctx
}

// checkColumnarAgainstHeap runs each query as a heap plan, serially, and as
// a columnar plan at DOP 1, 2 and 8 with runtime filters off and (where the
// plan has any) on: the columnar rows must be the heap's, in heap order, and
// each filter setting must cost the same at every DOP. It returns the serial
// unfiltered columnar contexts, by query.
func checkColumnarAgainstHeap(t *testing.T, cat *catalog.Catalog, step string, queries []string) []*Context {
	t.Helper()
	var serial []*Context
	for _, q := range queries {
		want, _, _ := dmlRun(t, colMkPlan(t, cat, q, false), 1, false)
		for _, rf := range []bool{false, true} {
			var cost float64
			for _, dop := range []int{1, 2, 8} {
				root := colMkPlan(t, cat, q, true)
				if rf && plan.PlanRuntimeFilters(root) == 0 {
					break
				}
				got, units, ctx := dmlRun(t, root, dop, rf)
				if got != want {
					t.Fatalf("%s: %q at dop=%d rf=%v: rows differ from the heap plan's", step, q, dop, rf)
				}
				if dop == 1 {
					cost = units
					if !rf {
						serial = append(serial, ctx)
					}
				} else if units != cost {
					t.Fatalf("%s: %q at dop=%d rf=%v costs %v, serial %v", step, q, dop, rf, units, cost)
				}
			}
		}
	}
	return serial
}

// TestColumnarSnapshotSurvivesDML: DML leaves the snapshot standing, and a
// columnar scan reads from the heap what was written since the build, at its
// place in the row order. Step by step — the build's last page filling up, a
// value moved out of its block's zone, an update to the same value, a page
// and a whole block emptied, new pages, random writes, every row deleted, a
// snapshot rebuilt over a heap with no live row and one built before the
// table had a page — and under seeded pushable and residual predicates, the
// rows are the heap plan's and the cost is one at every DOP, with runtime
// filters off and on (and TestRowLifetime repeats it all under the harness).
func TestColumnarSnapshotSurvivesDML(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cat := colTestCatalog(t, 1000, 50, rng)
	f, _ := cat.Table("fact")
	// Ten rows of the first page go before the build, so from there on every
	// page straddles two blocks.
	for _, rid := range ridsWhere(f, func(rid storage.RID, _ types.Row) bool { return rid.Page() == 0 && rid.Slot() >= 5 && rid.Slot() < 15 }) {
		cat.Delete(nil, f, rid)
	}
	cat.BuildColumnar(f, colTestBlock)
	mark := f.Col().Mark()

	queries := func() []string {
		lo := rng.Intn(2700)
		return []string{
			"SELECT fact.k, fact.s FROM fact",
			"SELECT fact.k, fact.grp FROM fact WHERE fact.k >= 100000",
			fmt.Sprintf("SELECT fact.k, fact.nn FROM fact WHERE fact.k >= %d AND fact.k < %d", lo, lo+rng.Intn(600)),
			fmt.Sprintf("SELECT fact.k FROM fact WHERE fact.s < 'g%02d' AND fact.nn <> %d", rng.Intn(25), rng.Intn(50)),
			fmt.Sprintf("SELECT fact.k, fact.s FROM fact WHERE (fact.k < %d OR fact.nn = %d) AND fact.grp >= %d", rng.Intn(2700), rng.Intn(50), rng.Intn(8)*1000000),
			fmt.Sprintf("SELECT fact.k, dim.w FROM fact, dim WHERE fact.k = dim.k AND fact.k < %d", 200+rng.Intn(2500)),
		}
	}
	pagesOf := func(lo, hi int) map[int]bool { // the build's pages holding positions [lo, hi)
		in := map[int]bool{}
		for p := 0; p+1 < len(mark.PageStart); p++ {
			if int(mark.PageStart[p]) < hi && int(mark.PageStart[p+1]) > lo {
				in[p] = true
			}
		}
		return in
	}
	deleteWhere := func(keep func(storage.RID, types.Row) bool) {
		for _, rid := range ridsWhere(f, keep) {
			cat.Delete(nil, f, rid)
		}
	}
	next := int64(1000)
	insert := func(n int) {
		for i := 0; i < n; i++ {
			cat.Insert(nil, f, factRow(next))
			next++
		}
	}
	update := func(rid storage.RID, fn func(types.Row) types.Row) {
		r, _ := f.Heap.Get(nil, rid)
		cat.Update(nil, f, rid, fn(r.Clone()))
	}
	for _, st := range []struct {
		name string
		dml  func()
	}{
		{"fill the build's last page", func() { insert(5) }},
		{"move a value out of its block's zone", func() {
			update(ridsWhere(f, func(_ storage.RID, r types.Row) bool { return r[0].I == 300 })[0], func(r types.Row) types.Row {
				r[0] = types.Int(100300)
				return r
			})
		}},
		{"update to the same value", func() {
			update(ridsWhere(f, func(_ storage.RID, r types.Row) bool { return r[0].I == 700 })[0], func(r types.Row) types.Row { return r })
		}},
		{"empty a page", func() { deleteWhere(func(rid storage.RID, _ types.Row) bool { return rid.Page() == 3 }) }},
		{"empty a block", func() {
			pages := pagesOf(5*colTestBlock, 6*colTestBlock)
			deleteWhere(func(rid storage.RID, _ types.Row) bool { return pages[rid.Page()] })
		}},
		{"new pages", func() { insert(600) }},
		{"random writes", func() {
			for i := 0; i < 40; i++ {
				rids := ridsWhere(f, func(storage.RID, types.Row) bool { return true })
				rid := rids[rng.Intn(len(rids))]
				switch rng.Intn(3) {
				case 0:
					insert(1 + rng.Intn(3))
				case 1:
					update(rid, func(r types.Row) types.Row {
						r[3] = types.Int(rng.Int63n(50))
						return r
					})
				default:
					cat.Delete(nil, f, rid)
				}
			}
		}},
		{"delete every row", func() { deleteWhere(func(storage.RID, types.Row) bool { return true }) }},
		{"insert after a build over no live row", func() {
			cat.BuildColumnar(f, colTestBlock)
			insert(100)
		}},
	} {
		st.dml()
		if f.Col() == nil {
			t.Fatalf("%s: the snapshot was dropped", st.name)
		}
		ctxs := checkColumnarAgainstHeap(t, cat, st.name, queries())
		full := ctxs[0] // the unfiltered scan
		if full.ColHeapPages == 0 {
			t.Errorf("%s: no page read from the heap after DML", st.name)
		}
		switch st.name {
		case "delete every row":
			// Every page changed, every block covered: the columnar scan is
			// the heap scan, to the unit.
			_, heapCost, _ := dmlRun(t, colMkPlan(t, cat, "SELECT fact.k, fact.s FROM fact", false), 1, false)
			if full.ColBlocksScanned != 0 || full.Clock.Units() != heapCost {
				t.Errorf("%s: %d blocks read, cost %v; heap scan %v", st.name, full.ColBlocksScanned, full.Clock.Units(), heapCost)
			}
		case "insert after a build over no live row":
		default:
			if full.ColBlocksScanned == 0 {
				t.Errorf("%s: no block read after DML", st.name)
			}
		}
	}

	// A snapshot built before the table had a page: everything is tail.
	e, err := cat.CreateTable("e", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	cat.AnalyzeTable(e, 8)
	cat.BuildColumnar(e, colTestBlock)
	for i := 0; i < 700; i++ {
		cat.Insert(nil, e, types.Row{types.Int(int64(i)), types.Int(int64(i % 7))})
	}
	ctxs := checkColumnarAgainstHeap(t, cat, "built empty", []string{
		"SELECT e.k, e.v FROM e",
		"SELECT e.k FROM e WHERE e.v = 3 AND e.k > 100",
	})
	if ctxs[0].ColHeapPages != 11 {
		t.Errorf("built empty: %d heap pages read, want all 11", ctxs[0].ColHeapPages)
	}
}

// TestColumnarScanConcurrentDML: one goroutine cycles INSERT, UPDATE and
// DELETE through the catalog while two others scan the table columnar, at
// DOP 1 and 2. The writer deletes only the rows it inserted, so the table
// holds base or base+1 live rows at any moment, and so must every scan
// count. Run under -race, it also shows the page stamps and the version are
// written and read under the heap's lock.
func TestColumnarScanConcurrentDML(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cat := colTestCatalog(t, 2000, 50, rng)
	f, _ := cat.Table("fact")
	base := int(f.Heap.NumRows())
	victims := ridsWhere(f, func(_ storage.RID, r types.Row) bool { return r[0].I%97 == 0 })
	plans := []plan.Node{colMkPlan(t, cat, "SELECT fact.k FROM fact", true), colMkPlan(t, cat, "SELECT fact.k FROM fact", true)}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1 + len(plans))
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < 3000; i++ {
			rid := cat.Insert(nil, f, factRow(int64(5000+i)))
			v := victims[i%len(victims)]
			r, _ := f.Heap.Get(nil, v)
			nr := r.Clone()
			nr[3] = types.Int(int64(i % 50))
			cat.Update(nil, f, v, nr)
			cat.Delete(nil, f, rid)
		}
	}()
	errs := make(chan error, len(plans))
	for w, root := range plans {
		go func(dop int, root plan.Node) {
			defer wg.Done()
			for scans := 0; scans < 3 || !done.Load(); scans++ {
				ctx := NewContext()
				ctx.DOP = dop
				rows, err := Run(root, ctx)
				if err == nil && (len(rows) < base || len(rows) > base+1) {
					err = fmt.Errorf("dop %d: scan counted %d rows, live rows were %d or %d", dop, len(rows), base, base+1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w+1, root)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
