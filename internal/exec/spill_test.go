package exec

import (
	"fmt"
	"slices"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// ---------- MemBroker regressions ----------

// TestMemBrokerMinimumGrant: the progress floor must hold no matter how
// exhausted or small the budget is — a zero grant would leave
// grant-sized-run loops (sort, recursive spill) spinning without progress.
func TestMemBrokerMinimumGrant(t *testing.T) {
	m := NewMemBroker(0)
	if g := m.Grant(1000); g != 16 {
		t.Fatalf("zero-budget grant = %d, want floor 16", g)
	}
	if g := m.Grant(5); g != 5 {
		t.Fatalf("small grant = %d, want full 5 (floor is min(want, 16))", g)
	}
	m2 := NewMemBroker(-7) // a schedule or operator may drive the budget negative
	if g := m2.Grant(100); g != 16 {
		t.Fatalf("negative-budget grant = %d, want floor 16", g)
	}
}

// TestMemBrokerNonPositiveWant: non-positive requests return zero and must
// not corrupt broker accounting (a negative want used to decrease inUse).
func TestMemBrokerNonPositiveWant(t *testing.T) {
	m := NewMemBroker(100)
	m.Grant(40)
	for _, want := range []int{0, -1, -50} {
		if g := m.Grant(want); g != 0 {
			t.Fatalf("Grant(%d) = %d, want 0", want, g)
		}
	}
	if u := m.InUse(); u != 40 {
		t.Fatalf("inUse after non-positive grants = %d, want 40", u)
	}
}

// TestMemBrokerSchedule: an installed schedule re-reads the budget before
// every grant, stepping once per grant — the mid-query pressure injector.
func TestMemBrokerSchedule(t *testing.T) {
	m := NewMemBroker(1 << 20)
	sched := []int{100, 50, 10}
	m.SetSchedule(func(step int) int {
		if step >= len(sched) {
			return sched[len(sched)-1]
		}
		return sched[step]
	})
	if g := m.Grant(1000); g != 100 {
		t.Fatalf("grant under schedule step 0 = %d, want 100", g)
	}
	m.Release(100)
	if g := m.Grant(1000); g != 50 {
		t.Fatalf("grant under schedule step 1 = %d, want 50", g)
	}
	m.Release(50)
	// Step 2 shrinks the budget to 10 — below the progress floor, which
	// wins (and counts as an overcommit).
	if g := m.Grant(1000); g != 16 {
		t.Fatalf("grant under schedule step 2 = %d, want floor 16", g)
	}
	if b := m.Budget(); b != 10 {
		t.Fatalf("budget after schedule = %d, want 10", b)
	}
	if brokerRecord(m).Overcommits == 0 {
		t.Fatal("floor grant past a shrunk budget must count as overcommit")
	}
	m.SetSchedule(nil)
	if g := m.Grant(1000); g == 0 {
		t.Fatal("grant after clearing schedule must still progress")
	}
}

// ---------- spilling execution ----------

// spillCatalog builds join inputs large enough that a tight budget forces
// multi-level recursion: big(k, v) with ~6 rows per key, probe(k, v)
// matching a subset, plus NULL keys on both sides (which must never match
// but must survive left-outer extension).
func spillCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int, mod int64, nullEvery int) {
		tb, err := cat.CreateTable(name, types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "g", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			k := types.Int(int64(i) % mod)
			if nullEvery > 0 && i%nullEvery == 0 {
				k = types.Null()
			}
			cat.Insert(nil, tb, types.Row{k, types.Int(int64(i % 11)), types.Int(int64(i))})
		}
		cat.AnalyzeTable(tb, 8)
	}
	mk("big", 1600, 260, 19)
	mk("probe", 900, 260, 23)
	return cat
}

var spillQueries = []string{
	`SELECT probe.v, big.v FROM probe, big WHERE probe.k = big.k`,
	`SELECT probe.v, big.v FROM probe LEFT JOIN big ON probe.k = big.k`,
	`SELECT big.g, COUNT(*), SUM(big.v), MIN(big.v), MAX(big.v) FROM big GROUP BY big.g`,
	`SELECT probe.g, COUNT(DISTINCT big.k), SUM(big.v) FROM probe, big WHERE probe.k = big.k GROUP BY probe.g`,
	`SELECT big.v FROM big WHERE big.k IS NOT NULL ORDER BY big.v`,
}

func runSpillQuery(t testing.TB, cat *catalog.Catalog, q string, budget int, dop int, sched func(int) int) ([]types.Row, *Context) {
	t.Helper()
	root := parallelPlanFor(t, cat, q)
	ctx := NewContext()
	ctx.Mem = NewMemBroker(budget)
	if sched != nil {
		ctx.Mem.SetSchedule(sched)
	}
	ctx.DOP = dop
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatalf("%q budget=%d dop=%d: %v", q, budget, dop, err)
	}
	return rows, ctx
}

// TestSpillJoinBuildOverBudget is the acceptance criterion: a hash join
// whose build side is 8x the memory budget must complete with results
// identical to the unlimited-budget run at DOP 1 and DOP 4, with spill
// partitions and recursion visible in the stats.
func TestSpillJoinBuildOverBudget(t *testing.T) {
	cat := spillCatalog(t)
	q := spillQueries[0]
	want, _ := runSpillQuery(t, cat, q, 1<<30, 1, nil)
	wantS := sortedRowStrings(want)
	// The build side ("big" after its filterless scan) is ~1600 rows; a
	// budget of 200 makes it 8x over budget.
	for _, dop := range []int{1, 4} {
		got, ctx := runSpillQuery(t, cat, q, 200, dop, nil)
		if gs := sortedRowStrings(got); fmt.Sprint(gs) != fmt.Sprint(wantS) {
			t.Fatalf("dop=%d: spilled join diverges from unlimited run (%d vs %d rows)", dop, len(got), len(want))
		}
		rec := recorded(ctx)
		parts, rows, pages, depth := rec.SpillParts, rec.SpillRows, rec.SpillPages, rec.SpillDepth
		if parts == 0 || rows == 0 || pages == 0 {
			t.Fatalf("dop=%d: expected spill activity, got parts=%d rows=%d pages=%d", dop, parts, rows, pages)
		}
		if depth < 1 {
			t.Fatalf("dop=%d: expected recursive spilling, max depth = %d", dop, depth)
		}
	}
}

// TestSpillMergeFallback: a build side that is one giant duplicate-key
// group cannot be split by repartitioning; at the recursion bound the join
// must fall back to external sort-merge and still be exact.
func TestSpillMergeFallback(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, rows int) {
		tb, err := cat.CreateTable(name, types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			cat.Insert(nil, tb, types.Row{types.Int(7), types.Int(int64(i))})
		}
		cat.AnalyzeTable(tb, 8)
	}
	mk("skl", 40)
	mk("skr", 300) // every row shares key 7: partitions never shrink
	q := `SELECT skl.v, skr.v FROM skl, skr WHERE skl.k = skr.k`
	want, _ := runSpillQuery(t, cat, q, 1<<30, 1, nil)
	got, ctx := runSpillQuery(t, cat, q, 20, 1, nil)
	if fmt.Sprint(sortedRowStrings(got)) != fmt.Sprint(sortedRowStrings(want)) {
		t.Fatalf("merge-fallback join diverges (%d vs %d rows)", len(got), len(want))
	}
	if fallbacks := recorded(ctx).SpillFallbacks; fallbacks == 0 {
		t.Fatal("expected at least one sort-merge fallback")
	}
}

// TestSpillEventsVisible: with a tracer attached, spilling emits spill.*
// events — the EXPLAIN ANALYZE surface of graceful degradation.
func TestSpillEventsVisible(t *testing.T) {
	cat := spillCatalog(t)
	root := parallelPlanFor(t, cat, spillQueries[0])
	ctx := NewContext()
	ctx.Mem = NewMemBroker(200)
	ctx.Trace = obs.NewTrace(ctx.Clock)
	if _, err := Run(root, ctx); err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ctx.Trace.Events(), func(e obs.Event) bool { return e.Kind == "spill.partition" }) {
		t.Fatal("expected spill.partition trace events")
	}
}

// TestSpillPropertyAcrossBudgets is the satellite property test: for every
// repertoire query, the result multiset must be byte-identical across
// budgets {unlimited, tight, shrinking mid-query} at DOP 1, 2 and 8.
func TestSpillPropertyAcrossBudgets(t *testing.T) {
	cat := spillCatalog(t)
	shrink := func(step int) int { // 4096 → 64, halving per grant
		b := 4096 >> step
		if b < 64 {
			return 64
		}
		return b
	}
	budgets := []struct {
		name   string
		budget int
		sched  func(int) int
	}{
		{"unlimited", 1 << 30, nil},
		{"tight", 96, nil},
		{"shrinking", 4096, shrink},
	}
	for _, q := range spillQueries {
		want, _ := runSpillQuery(t, cat, q, 1<<30, 1, nil)
		wantS := fmt.Sprint(sortedRowStrings(want))
		for _, b := range budgets {
			for _, dop := range []int{1, 2, 8} {
				got, _ := runSpillQuery(t, cat, q, b.budget, dop, b.sched)
				if gs := fmt.Sprint(sortedRowStrings(got)); gs != wantS {
					t.Errorf("%q %s dop=%d: results diverge (%d vs %d rows)",
						q, b.name, dop, len(got), len(want))
				}
			}
		}
	}
}

// TestSpillSortTempRuns: the external sort spills full runs through temp
// runs; order and content stay exact and the activity is recorded.
func TestSpillSortTempRuns(t *testing.T) {
	cat := spillCatalog(t)
	q := spillQueries[4]
	want, _ := runSpillQuery(t, cat, q, 1<<30, 1, nil)
	got, ctx := runSpillQuery(t, cat, q, 64, 1, nil)
	if fmt.Sprint(rowStrings(got)) != fmt.Sprint(rowStrings(want)) {
		t.Fatalf("spilled sort diverges (%d vs %d rows)", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i][0].I < got[i-1][0].I {
			t.Fatal("spilled sort not ordered")
		}
	}
	rec := recorded(ctx)
	parts, pages := rec.SpillParts, rec.SpillPages
	if parts == 0 || pages == 0 {
		t.Fatalf("expected sort spill runs recorded, got parts=%d pages=%d", parts, pages)
	}
}

// TestSpillAggSortedFallback: duplicate keys fold into one group, so no data
// drives an aggregation past the recursion bound at a grant of 16 groups with
// fewer than some 8 000 of them; a sink opened at the bound shows the
// sort-and-stream fallback returning the groups the resident table would.
func TestSpillAggSortedFallback(t *testing.T) {
	cat := spillCatalog(t)
	root := parallelPlanFor(t, cat, `SELECT big.k, COUNT(*), SUM(big.v), MIN(big.v), COUNT(DISTINCT big.g) FROM big GROUP BY big.k`)
	var agg *plan.AggNode
	plan.Walk(root, func(n plan.Node) {
		if a, ok := n.(*plan.AggNode); ok {
			agg = a
		}
	})
	in, err := Run(agg.Kids[0], NewContext())
	if err != nil {
		t.Fatal(err)
	}
	groups := func(depth, budget int) ([]string, *Context) {
		ctx := NewContext()
		ctx.Mem = NewMemBroker(budget)
		sink := newAggSink(ctx, newAggLayout(agg), depth)
		defer sink.close()
		for _, r := range in {
			if err := sink.add(r); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := sink.finish()
		if err != nil {
			t.Fatal(err)
		}
		var out aggOutput
		out.sort(ctx.Clock, sink.tab.lay, segs, allGroups(segs))
		var rows []string
		for r, ok, _ := out.Next(); ok; r, ok, _ = out.Next() {
			rows = append(rows, r.String())
		}
		return rows, ctx
	}
	want, _ := groups(0, 1<<30)
	got, ctx := groups(maxSpillDepth, 16)
	if len(want) != 261 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fallback returns %d groups, the resident table %d (want 261):\n%v\n%v", len(got), len(want), got, want)
	}
	if fallbacks := recorded(ctx).SpillFallbacks; fallbacks == 0 {
		t.Fatal("no partition took the sorted fallback")
	}
}

// TestSpillCostMonotoneInBudget: more memory must never cost more — the
// monotone-degradation property behind the memory-axis robustness maps.
// Partitioning is grant-independent and residency is a budget-prefix, so a
// larger budget spills a subset of the partitions a smaller one does.
func TestSpillCostMonotoneInBudget(t *testing.T) {
	cat := spillCatalog(t)
	for _, q := range spillQueries[:2] {
		prev := -1.0
		for _, budget := range []int{64, 128, 256, 512, 1024, 4096, 1 << 30} {
			_, ctx := runSpillQuery(t, cat, q, budget, 1, nil)
			cost := ctx.Clock.Units()
			if prev >= 0 && cost > prev {
				t.Errorf("%q: cost rose from %v to %v when budget grew to %d", q, prev, cost, budget)
			}
			prev = cost
		}
	}
}
