package exec

import (
	"fmt"
	"math"
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

// cascadeCatalog builds cas — pk packed, run RLE, s dictionary, f raw
// floats, nn raw with NULLs — and dim, fifty of cas's keys, whose runtime
// filter drops most probe rows and so never disables itself. Both carry
// snapshots of 128-row blocks.
func cascadeCatalog(t *testing.T, rows int, rng *rand.Rand) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	c, err := cat.CreateTable("cas", types.Schema{
		{Name: "pk", Kind: types.KindInt},
		{Name: "run", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
		{Name: "f", Kind: types.KindFloat},
		{Name: "nn", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		cat.Insert(nil, c, cascadeRow(int64(i), rng))
	}
	d, err := cat.CreateTable("dim", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "w", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cat.Insert(nil, d, types.Row{types.Int(int64(i * rows / 50)), types.Int(int64(i % 7))})
	}
	for _, tab := range []*catalog.Table{c, d} {
		cat.AnalyzeTable(tab, 8)
		cat.BuildColumnar(tab, colTestBlock)
	}
	for col, want := range []string{"packed", "rle", "dict", "raw", "raw"} {
		if got := c.Col().ColEncoding(col); got != want {
			t.Fatalf("cas column %d is %s, want %s", col, got, want)
		}
	}
	return cat
}

func cascadeRow(k int64, rng *rand.Rand) types.Row {
	nn := types.Int(rng.Int63n(40))
	if rng.Intn(5) == 0 {
		nn = types.Null()
	}
	return types.Row{types.Int(k), types.Int(k / 50 * 1000000), types.Str(fmt.Sprintf("s%02d", k*7%23)), types.Float(rng.Float64() * 100), nn}
}

// cascadeConj is one pushed conjunct as a test writes it.
type cascadeConj struct {
	col int
	op  storage.CmpOp
	v   types.Value
}

var cascadeCols = []string{"pk", "run", "s", "f", "nn"}
var cascadeOps = []string{"=", "<>", "<", "<=", ">", ">="}

func (c cascadeConj) String() string {
	lit := c.v.String()
	if c.v.K == types.KindFloat {
		lit = fmt.Sprintf("%.3f", c.v.F)
	}
	return fmt.Sprintf("cas.%s %s %s", cascadeCols[c.col], cascadeOps[c.op], lit)
}

// holds evaluates the conjunct on one stored value, NULL false.
func (c cascadeConj) holds(x types.Value) bool {
	if x.IsNull() {
		return false
	}
	r := types.Compare(x, c.v)
	return []bool{r == 0, r != 0, r < 0, r <= 0, r > 0, r >= 0}[c.op]
}

func randomConj(rng *rand.Rand, rows int) cascadeConj {
	c := cascadeConj{col: rng.Intn(5), op: storage.CmpOp(rng.Intn(6))}
	switch c.col {
	case 0:
		c.v = types.Int(int64(rng.Intn(rows+100) - 50))
	case 1:
		c.v = types.Int(int64(rng.Intn(2*rows/50+2)) * 500000)
	case 2:
		c.v = types.Str(fmt.Sprintf("s%02d", rng.Intn(25)))
		if rng.Intn(4) == 0 {
			c.v.S += "x" // between two dictionary entries
		}
	case 3:
		c.v = types.Float(float64(rng.Intn(110000)-5000) / 1000)
	default:
		c.v = types.Int(int64(rng.Intn(44) - 2))
	}
	return c
}

// permutations calls fn with every order of cs.
func permutations(cs []cascadeConj, fn func([]cascadeConj)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(cs) {
			fn(cs)
			return
		}
		for i := k; i < len(cs); i++ {
			cs[k], cs[i] = cs[i], cs[k]
			rec(k + 1)
			cs[k], cs[i] = cs[i], cs[k]
		}
	}
	rec(0)
}

// cascadeReference is what scanning cas columnar costs by the charge
// contract, worked out from the decoded values instead of the encoded
// evaluation: every changed and tail page read from the heap; one zone check
// for a block a conjunct's zone rules out; for a block read, a zone check a
// conjunct, the conjuncts' columns, then the conjuncts in rank order each
// charged the rows still alive (an RLE column its runs) until none is, then
// the other decoded columns and a row's work per survivor if one is; and
// the Project above, a row's work a result row.
func cascadeReference(t *testing.T, tab *catalog.Table, conj []cascadeConj, decode []int, results int) int64 {
	t.Helper()
	cs, clk := tab.Col(), storage.NewClock(storage.DefaultCostModel())
	mark := cs.Mark()
	changedList, npages := tab.Heap.Changed(mark, nil)
	changed := map[int]bool{}
	for _, p := range changedList {
		changed[int(p)] = true
	}
	for p := 0; p < npages; p++ {
		if changed[p] || p >= len(mark.PageStart)-1 {
			tab.Heap.ScanPage(clk, p, func(storage.RID, types.Row) bool {
				clk.RowWork(1)
				return true
			})
		}
	}
	vals := make([][]types.Value, cs.NumCols())
	dict := map[int][]string{}
	for col := range vals {
		vals[col] = make([]types.Value, cs.BlockSize())
		if cs.ColEncoding(col) != "dict" {
			continue
		}
		seen := map[string]bool{}
		for b := 0; b < cs.NumBlocks(); b++ {
			cs.Decode(col, b, vals[col][:cs.BlockRows(b)])
			for _, v := range vals[col][:cs.BlockRows(b)] {
				seen[v.S] = true
			}
		}
		for s := range seen {
			dict[col] = append(dict[col], s)
		}
		sort.Strings(dict[col])
	}
	page := 0
	for b := 0; b < cs.NumBlocks(); b++ {
		lo, n := b*cs.BlockSize(), cs.BlockRows(b)
		alive, nalive := make([]bool, n), 0
		for i := range alive {
			for int(mark.PageStart[page+1]) <= lo+i {
				page++
			}
			if alive[i] = !changed[page]; alive[i] {
				nalive++
			}
		}
		if nalive == 0 {
			continue
		}
		pruned := false
		for _, c := range conj {
			pruned = pruned || cs.ZonePrune(c.col, b, c.op, c.v)
		}
		if pruned {
			clk.ZoneChecks(1)
			continue
		}
		for range conj {
			clk.ZoneChecks(1)
		}
		read := map[int]bool{}
		for _, c := range conj {
			if !read[c.col] {
				read[c.col] = true
				clk.SeqRead(cs.PageSpan(c.col, b))
			}
			cs.Decode(c.col, b, vals[c.col][:n])
		}
		for _, k := range cascadeRank(cs, conj, b, dict) {
			if nalive == 0 {
				break
			}
			c, units := conj[k], nalive
			if cs.ColEncoding(c.col) == "rle" {
				units = 1
				for i := 1; i < n; i++ {
					if types.Compare(vals[c.col][i], vals[c.col][i-1]) != 0 {
						units++
					}
				}
			}
			clk.FilterTestsBatch(units)
			for i := range alive {
				if alive[i] && !c.holds(vals[c.col][i]) {
					alive[i] = false
					nalive--
				}
			}
		}
		if nalive == 0 {
			continue
		}
		for _, col := range decode {
			if !read[col] {
				clk.SeqRead(cs.PageSpan(col, b))
			}
		}
		for i := 0; i < nalive; i++ {
			clk.RowWork(1)
		}
	}
	for i := 0; i < results; i++ {
		clk.RowWork(1)
	}
	return clk.UnitsScaled()
}

// cascadeRank is the rank rule worked out by counting: = first, <> last, the
// rest by the share of the block's zone they admit — of its integers on an
// integer column, linearly on a float one, of its dictionary codes on a
// string one — and ties by column, operator, then value.
func cascadeRank(cs *storage.ColumnStore, conj []cascadeConj, b int, dict map[int][]string) []int {
	type key struct {
		class int
		share float64
	}
	keys := make([]key, len(conj))
	for k, c := range conj {
		keys[k].class = []int{0, 2, 1, 1, 1, 1}[c.op] // =, <>, <, <=, >, >=
		zmin, zmax, _ := cs.Zone(c.col, b)
		switch c.v.K {
		case types.KindString: // count the codes
			d := dict[c.col]
			code := func(s string) int { return sort.SearchStrings(d, s) }
			pos := float64(code(c.v.S))
			if int(pos) == len(d) || d[int(pos)] != c.v.S {
				pos -= 0.5
			}
			in := 0
			for x := code(zmin.S); x <= code(zmax.S); x++ {
				r := float64(x) - pos
				if []bool{r == 0, r != 0, r < 0, r <= 0, r > 0, r >= 0}[c.op] {
					in++
				}
			}
			keys[k].share = float64(in) / float64(code(zmax.S)-code(zmin.S)+1)
		case types.KindFloat: // linear
			lo, hi, x := zmin.F, zmax.F, c.v.F
			s := []float64{0, 1, (x - lo) / (hi - lo), (x - lo) / (hi - lo), (hi - x) / (hi - lo), (hi - x) / (hi - lo)}[c.op]
			if hi == lo {
				s = 1
			}
			keys[k].share = math.Max(0, math.Min(1, s))
		default: // count the integers
			lo, hi, x := zmin.I, zmax.I, c.v.I
			eq := int64(0)
			if lo <= x && x <= hi {
				eq = 1
			}
			n := []int64{eq, hi - lo + 1 - eq, x - lo, x - lo + 1, hi - x, hi - x + 1}[c.op]
			keys[k].share = float64(max(0, min(n, hi-lo+1))) / float64(hi-lo+1)
		}
	}
	order := make([]int, len(conj))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := keys[order[i]], keys[order[j]]
		ca, cb := conj[order[i]], conj[order[j]]
		switch {
		case a.class != b.class:
			return a.class < b.class
		case a.share != b.share:
			return a.share < b.share
		case ca.col != cb.col:
			return ca.col < cb.col
		case ca.op != cb.op:
			return ca.op < cb.op
		}
		return types.Compare(ca.v, cb.v) < 0
	})
	return order
}

// TestColumnarFilterCascade: pushed conjuncts run most selective first, each
// over the rows the ones before left alive, and are charged for exactly
// that. Over seeded conjunctions of one to four conjuncts on packed, RLE,
// dictionary, raw-float and raw-with-NULL columns, in every written order, on
// the snapshot as built and after changed and tail pages, at DOP 1, 2 and 8,
// with runtime filters off and on and every producer's previous row poisoned:
// the rows are the heap scan's, the cost is one across DOP and written order,
// and without a runtime filter it is the charge cascadeReference works out. A
// block the conjuncts leave empty is read for their column alone.
func TestColumnarFilterCascade(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	rng := rand.New(rand.NewSource(67))
	const rows = 1500
	cat := cascadeCatalog(t, rows, rng)
	tab, _ := cat.Table("cas")

	check := func(step string, conj []cascadeConj, sel string, rf bool) {
		t.Helper()
		var wantRows string
		var cost float64
		first := true
		permutations(conj, func(order []cascadeConj) {
			where := make([]string, len(order))
			for i, c := range order {
				where[i] = c.String()
			}
			q := fmt.Sprintf("SELECT %s FROM cas WHERE %s", sel, strings.Join(where, " AND "))
			if rf {
				q = fmt.Sprintf("SELECT cas.pk, dim.w FROM cas, dim WHERE cas.pk = dim.k AND %s", strings.Join(where, " AND "))
			}
			if first {
				wantRows, _, _ = dmlRun(t, colMkPlan(t, cat, q, false), 1, false)
			}
			for _, dop := range []int{1, 2, 8} {
				root := colMkPlan(t, cat, q, true)
				if rf && plan.PlanRuntimeFilters(root) != 1 {
					t.Fatalf("%s: %q plants no runtime filter on cas", step, q)
				}
				got, units, ctx := dmlRun(t, root, dop, rf)
				if got != wantRows {
					t.Fatalf("%s: %q at dop=%d rf=%v: rows differ from the heap scan's", step, q, dop, rf)
				}
				if first {
					cost, first = units, false
					if rf {
						continue
					}
					var scan *plan.ScanNode
					plan.Walk(root, func(n plan.Node) {
						if s, ok := n.(*plan.ScanNode); ok {
							scan = s
						}
					})
					results := 0
					if wantRows != "" {
						results = strings.Count(wantRows, "\n") + 1
					}
					if want := cascadeReference(t, tab, order, scan.Cols, results); ctx.Clock.UnitsScaled() != want {
						t.Fatalf("%s: %q costs %d, the reference charge is %d", step, q, ctx.Clock.UnitsScaled(), want)
					}
				} else if units != cost {
					t.Fatalf("%s: %q at dop=%d rf=%v costs %v, %v in another order or at dop 1", step, q, dop, rf, units, cost)
				}
			}
		})
	}
	run := func(step string) {
		for i := 0; i < 24; i++ {
			conj := make([]cascadeConj, 1+i%4)
			for j := range conj {
				conj[j] = randomConj(rng, rows)
			}
			sel := []string{"cas.pk, cas.s", "cas.f, cas.nn", "cas.run"}[i%3]
			for _, rf := range []bool{false, true} {
				check(step, conj, sel, rf)
			}
		}
	}
	run("as built")
	// A tie: both admit half of every block's nn zone [0, 39], and which
	// runs first decides how many rows the other tests.
	check("a tie", []cascadeConj{{4, storage.CmpGE, types.Int(20)}, {4, storage.CmpLE, types.Int(19)}}, "cas.pk", false)

	// The block the conjuncts leave empty: block 0 passes both zone checks,
	// its pk column is read and tested (128 rows, then the 40 below 40), and
	// nothing else of it is read.
	empty := []cascadeConj{{0, storage.CmpGE, types.Int(60)}, {0, storage.CmpLT, types.Int(40)}}
	check("an emptied block", empty, "cas.s, cas.f", false)
	root := colMkPlan(t, cat, "SELECT cas.s, cas.f FROM cas WHERE cas.pk >= 60 AND cas.pk < 40", true)
	_, units, ctx := dmlRun(t, root, 1, false)
	cs := tab.Col()
	want := 0.001*float64(2+cs.NumBlocks()-1) + float64(cs.PageSpan(0, 0)) + 0.002*(128+40)
	if ctx.ColBlocksScanned != 1 || math.Abs(units-want) > 1e-9 || cs.PageSpan(2, 0)+cs.PageSpan(3, 0) == 0 {
		t.Errorf("an emptied block: %d blocks read at %v units, want 1 at %v", ctx.ColBlocksScanned, units, want)
	}

	for _, rid := range ridsWhere(tab, func(rid storage.RID, _ types.Row) bool { return rid.Page()%4 == 1 && rid.Slot() == 3 }) {
		r, _ := tab.Heap.Get(nil, rid)
		nr := r.Clone()
		nr[3] = types.Float(-1)
		cat.Update(nil, tab, rid, nr)
	}
	for _, rid := range ridsWhere(tab, func(rid storage.RID, _ types.Row) bool { return rid.Page() == 6 }) {
		cat.Delete(nil, tab, rid)
	}
	for i := int64(0); i < 150; i++ {
		cat.Insert(nil, tab, cascadeRow(rows+i, rng))
	}
	run("changed and tail pages")
}
