package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
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
		{"row", 1},
		{"dop2", 2},
		{"dop8", 8},
	}
	for _, q := range queries {
		isJoin := strings.Contains(q, "dim")
		for _, mem := range []int{0, 48} {
			for _, cfg := range configs {
				ref := colMkPlan(t, cat, q, false)
				if cfg.dop > 1 {
					plan.MarkParallel(ref, 1)
				}
				_, want, _ := colRun(t, ref, cfg.dop, mem, false)

				root := colMkPlan(t, cat, q, true)
				if cfg.dop > 1 {
					plan.MarkParallel(root, 1)
				}
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
// telescope to the serial total.
func TestColumnarCostParityAcrossVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cat := colTestCatalog(t, 2000, 200, rng)

	for _, q := range []string{
		"SELECT fact.k, fact.s FROM fact WHERE fact.k < 700",
		"SELECT fact.k, fact.nn FROM fact WHERE fact.nn >= 10 AND fact.grp <= 12000000",
		"SELECT fact.k FROM fact WHERE fact.s = 'g03'",
	} {
		rowUnits, rowRows, _ := colRun(t, colMkPlan(t, cat, q, true), 1, 0, false)

		for _, dop := range []int{2, 8} {
			p := colMkPlan(t, cat, q, true)
			plan.MarkParallel(p, 1)
			units, rows, _ := colRun(t, p, dop, 0, false)
			if strings.Join(rowRows, ";") != strings.Join(rows, ";") {
				t.Fatalf("dop %d results diverge on %q", dop, q)
			}
			if units != rowUnits {
				t.Fatalf("dop %d cost parity broken on %q: %v vs serial %v", dop, q, units, rowUnits)
			}
		}
	}
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

// TestColumnarFallbackAfterDML: DML invalidates the snapshot between
// planning and execution; the scan must fall back to the heap and still
// see the new row.
func TestColumnarFallbackAfterDML(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	cat := colTestCatalog(t, 500, 50, rng)
	q := "SELECT fact.k FROM fact WHERE fact.k >= 490"

	root := colMkPlan(t, cat, q, true)
	f, _ := cat.Table("fact")
	cat.Insert(nil, f, types.Row{
		types.Int(9999), types.Int(0), types.Str("g00"), types.Int(1)})
	if f.Col() != nil {
		t.Fatal("DML did not invalidate the columnar snapshot")
	}
	_, got, ctx := colRun(t, root, 1, 0, false)
	found := false
	for _, r := range got {
		if strings.HasPrefix(r, "9999") {
			found = true
		}
	}
	if !found {
		t.Fatalf("heap fallback missed the freshly inserted row: %v", got)
	}
	if ctx.ColBlocksScanned != 0 || ctx.ColBlocksSkipped != 0 {
		t.Fatal("columnar counters moved on a heap-fallback scan")
	}
}
