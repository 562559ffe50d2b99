package exec

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// TestRowLifetime re-runs the exactness matrices with the row-lifetime
// harness on: every operator's previously returned row is overwritten
// with sentinels on its next call, so a consumer that kept a row
// without copying it produces wrong rows or a different cost here instead of
// passing because the producer happened not to reuse its buffer.
func TestRowLifetime(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"PropertyEngineMatchesReference", TestPropertyEngineMatchesReference},
		{"PropertyIndexPathsMatchReference", TestPropertyIndexPathsMatchReference},
		{"PropertyGroupedAggregatesMatchReference", TestPropertyGroupedAggregatesMatchReference},
		{"PropertyHavingMatchesPostFilter", TestPropertyHavingMatchesPostFilter},
		{"PropertyRuntimeFiltersExact", TestPropertyRuntimeFiltersExact},
		{"RuntimeFilterExactAcrossSelectivity", TestRuntimeFilterExactAcrossSelectivity},
		{"ColumnarMatchesHeapEverywhere", TestColumnarMatchesHeapEverywhere},
		{"ColumnarCostParityAcrossVariants", TestColumnarCostParityAcrossVariants},
		{"ColumnarSnapshotSurvivesDML", TestColumnarSnapshotSurvivesDML},
		{"ParallelMatchesSerial", TestParallelMatchesSerial},
		{"ParallelDeterminism", TestParallelDeterminism},
		{"SpillPropertyAcrossBudgets", TestSpillPropertyAcrossBudgets},
		{"SpillPipelineChainsExact", TestSpillPipelineChainsExact},
		{"NestedBuildExact", TestNestedBuildExact},
		{"ColumnarShardedJoinExact", TestColumnarShardedJoinExact},
		{"SpillMergeFallback", TestSpillMergeFallback},
		{"SpillSortTempRuns", TestSpillSortTempRuns},
		{"SpillCostMonotoneInBudget", TestSpillCostMonotoneInBudget},
		{"AllEnumeratedPlansAgree", TestAllEnumeratedPlansAgree},
		{"AllJoinAlgorithmsAgree", TestAllJoinAlgorithmsAgree},
		{"ForcedAlgorithmsOnDuplicateHeavyData", TestForcedAlgorithmsOnDuplicateHeavyData},
		{"JoinsWithNullKeys", TestJoinsWithNullKeys},
		{"LeftOuterJoinAllAlgorithms", TestLeftOuterJoinAllAlgorithms},
		{"Distinct", TestDistinct},
		{"OrderByLimitOffset", TestOrderByLimitOffset},
		{"Aggregation", TestAggregation},
		{"AggregateBeneathRetainers", TestAggregateBeneathRetainers},
		{"ExchangeBeneathRetainers", TestExchangeBeneathRetainers},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// TestAggregateBeneathRetainers puts an aggregate — whose rows are lent: one
// buffer, reassembled at every Next — directly beneath each kind of operator
// that keeps rows: the root drain, DISTINCT and a hash join's build side (one
// worker's groups, and a morsel partial merge under a fused build). Each must
// hold its own copies.
func TestAggregateBeneathRetainers(t *testing.T) {
	cat := spillCatalog(t)
	big, _ := cat.Table("big")
	groups := map[int64][2]int64{} // k → COUNT(*), SUM(v)
	big.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
		if !r[0].IsNull() {
			g := groups[r[0].I]
			groups[r[0].I] = [2]int64{g[0] + 1, g[1] + r[2].I}
		}
		return true
	})
	groupRow := func(k int64) string {
		return types.Row{types.Int(k), types.Int(groups[k][0]), types.Float(float64(groups[k][1]))}.String()
	}
	var wantGroups, wantJoin []string
	for k := range groups {
		wantGroups = append(wantGroups, groupRow(k))
	}
	probe, _ := cat.Table("probe")
	probe.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
		if _, ok := groups[r[0].I]; ok && !r[0].IsNull() {
			wantJoin = append(wantJoin, r.String()+groupRow(r[0].I))
		}
		return true
	})
	// aggPlan is a fresh γ_k(COUNT(*), SUM(v)) over σ_{k IS NOT NULL}(big).
	aggPlan := func() *plan.AggNode {
		var agg *plan.AggNode
		plan.Walk(parallelPlanFor(t, cat, `SELECT big.k, COUNT(*), SUM(big.v) FROM big WHERE big.k IS NOT NULL GROUP BY big.k`), func(n plan.Node) {
			if a, ok := n.(*plan.AggNode); ok {
				agg = a
			}
		})
		return agg
	}
	over := func(agg *plan.AggNode) plan.Base {
		return plan.Base{Out: agg.Schema(), Kids: []plan.Node{agg}}
	}
	join := func() plan.Node {
		agg := aggPlan()
		scan := &plan.ScanNode{Base: plan.Base{Out: probe.Schema, Title: "SeqScan(probe)"}, Table: probe}
		return &plan.JoinNode{
			Base: plan.Base{Out: scan.Out.Concat(agg.Schema()), Kids: []plan.Node{scan, agg}, Title: "HashJoin"},
			Alg:  plan.JoinHash, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0},
		}
	}
	for _, tc := range []struct {
		name string
		root plan.Node
		dop  int
		want []string
	}{
		{"root drain", aggPlan(), 1, wantGroups},
		{"distinct", &plan.DistinctNode{Base: over(aggPlan())}, 1, wantGroups},
		{"join build", join(), 1, wantJoin},
		{"join build dop=2", join(), 2, wantJoin},
	} {
		ctx := NewContext()
		ctx.DOP = tc.dop
		rows, err := Run(tc.root, ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = r.String()
			if len(r) > 3 { // probe‖group, rendered as the two rows side by side
				got[i] = r[:3].String() + r[3:].String()
			}
		}
		sort.Strings(got)
		sort.Strings(tc.want)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: %d rows, want %d; first %v, want %v", tc.name, len(got), len(tc.want), got[:1], tc.want[:1])
		}
	}
}

// TestExchangeBeneathRetainers puts an exchange — whose rows are lent: boxed
// one at a time into the exchange's one row — directly beneath each operator
// that used to take them over as they were: the root drain, a sort, a
// nested-loop join's inner side and both inputs of a merge join, at DOP 1 (a
// store refilled a morsel at a time), 2 and 8. Each must hold its own copies:
// same rows in the same order, and the same cost, at every DOP.
func TestExchangeBeneathRetainers(t *testing.T) {
	cat := spillCatalog(t)
	big, _ := cat.Table("big")
	probe, _ := cat.Table("probe")
	for _, tc := range []struct {
		name string
		mk   func(scan func(*catalog.Table) plan.Node) plan.Node
	}{
		{"root drain", func(scan func(*catalog.Table) plan.Node) plan.Node { return scan(big) }},
		{"sort", func(scan func(*catalog.Table) plan.Node) plan.Node {
			return &plan.SortNode{Base: plan.Base{Out: big.Schema, Kids: []plan.Node{scan(big)}}, Keys: []plan.OrderSpec{{Col: 1}, {Col: 2, Desc: true}}}
		}},
		{"nested-loop inner", func(scan func(*catalog.Table) plan.Node) plan.Node {
			return &plan.JoinNode{Base: plan.Base{Out: probe.Schema.Concat(big.Schema), Kids: []plan.Node{scan(probe), scan(big)}, Title: "NLJoin"},
				Alg: plan.JoinNL, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
		}},
		{"merge inputs", func(scan func(*catalog.Table) plan.Node) plan.Node {
			return &plan.JoinNode{Base: plan.Base{Out: probe.Schema.Concat(big.Schema), Kids: []plan.Node{scan(probe), scan(big)}, Title: "MergeJoin"},
				Alg: plan.JoinMerge, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
		}},
	} {
		run := func(dop int) (string, float64) {
			ctx := NewContext()
			ctx.DOP = dop
			rows, err := Run(tc.mk(func(tb *catalog.Table) plan.Node {
				return &plan.ScanNode{Base: plan.Base{Out: tb.Schema, Title: "SeqScan(" + tb.Name + ")"}, Table: tb}
			}), ctx)
			if err != nil || len(rows) < 900 {
				t.Fatalf("%s dop=%d: %d rows, %v", tc.name, dop, len(rows), err)
			}
			return fmt.Sprint(rows), ctx.Clock.Units()
		}
		want, wantCost := run(1)
		for _, dop := range []int{2, 8} {
			if got, cost := run(dop); got != want || cost != wantCost {
				t.Errorf("%s over an exchange at dop=%d: rows equal %v, cost %v, dop 1 %v", tc.name, dop, got == want, cost, wantCost)
			}
		}
	}
}

// TestRowLifetimeHarnessBites shows the harness catching the bug it exists
// for: a consumer that keeps rows without copying reads sentinels.
func TestRowLifetimeHarnessBites(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	src := &sliceOp{rows: []types.Row{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}}
	op := wrapOp(src)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var kept []types.Row
	for {
		r, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, r) // the bug: no copy
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range kept {
		if r[0] != staleRow {
			t.Errorf("kept row %d still reads %v: the harness did not poison it", i, r[0])
		}
	}
	if src.rows[0][0].I != 1 {
		t.Error("harness scribbled over the producer's own rows")
	}
	rows, err := drain(wrapOp(&sliceOp{rows: src.rows}))
	if err != nil || len(rows) != 3 || rows[2][0].I != 3 || rows[0][0].I != 1 {
		t.Errorf("drain under the harness returned %v, %v", rows, err)
	}
}

// sliceOp serves fixed rows (which it owns and must never see modified).
type sliceOp struct {
	rows []types.Row
	pos  int
}

func (s *sliceOp) Open() error { s.pos = 0; return nil }
func (s *sliceOp) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}
func (s *sliceOp) Close() error { return nil }

// rowSpy is a filter that keeps a copy of every row it is asked about and
// passes it: it reads no column, so a scan's decode list leaves it none.
type rowSpy struct{ seen []types.Row }

func (s *rowSpy) Eval(r types.Row, _ []types.Value) (types.Value, error) {
	s.seen = append(s.seen, r.Clone())
	return types.Bool(true), nil
}
func (s *rowSpy) Kind() types.Kind             { return types.KindBool }
func (s *rowSpy) String() string               { return "spy" }
func (s *rowSpy) Walk(fn func(expr.Expr) bool) { fn(s) }

// TestProjectedHeapScanPoisoned: a heap scan decodes only its Decode
// columns, each at its place in a full-width row, and under the row-lifetime
// harness every other position reads as a stale row does — so a filter or a
// runtime filter that reads a column the list left out fails here, by name,
// instead of reading what an earlier page left there.
func TestProjectedHeapScanPoisoned(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	cat := catalog.New()
	tb, err := cat.CreateTable("t", types.Schema{
		{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindString},
		{Name: "c", Kind: types.KindFloat}, {Name: "d", Kind: types.KindDate},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []types.Row
	for i := 0; i < 3*storage.PageRows+5; i++ {
		r := types.Row{types.Int(int64(i)), types.Str(fmt.Sprint("s", i)), types.Float(float64(i) / 4), types.Date(int64(9000 + i))}
		if _, err := cat.Insert(nil, tb, r); err != nil {
			t.Fatal(err)
		}
		want = append(want, types.Row{r[0], r[2]})
	}
	spy := &rowSpy{}
	scan := &plan.ScanNode{Table: tb, Alias: "t", Filter: spy, Cols: []int{0, 2}}
	scan.Out = types.Schema{tb.Schema[0], tb.Schema[2]}
	plan.MarkDecode(scan)
	if !slices.Equal(scan.Decode, []int{0, 2}) {
		t.Fatalf("decode list %v, want [0 2]", scan.Decode)
	}
	got, err := Run(scan, NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if rowsJoined(got) != rowsJoined(want) {
		t.Fatalf("projected scan returned %v, want %v", got, want)
	}
	if len(spy.seen) != len(want) {
		t.Fatalf("the filter saw %d rows, the table has %d", len(spy.seen), len(want))
	}
	for i, r := range spy.seen {
		if len(r) != 4 || !sameValue(r[0], want[i][0]) || !sameValue(r[2], want[i][1]) || r[1] != staleRow || r[3] != staleRow {
			t.Fatalf("row %d reached the filter as %v: want columns 0 and 2 decoded, 1 and 3 stale", i, r)
		}
	}
}
