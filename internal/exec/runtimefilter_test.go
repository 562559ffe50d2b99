package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func TestRuntimeFilterMembershipAndBounds(t *testing.T) {
	f := newRuntimeFilter(0, 100)
	for i := 0; i < 100; i++ {
		f.add(types.Int(int64(i * 3)))
	}
	for i := 0; i < 100; i++ {
		if !f.test(types.Int(int64(i * 3))) {
			t.Fatalf("false negative for inserted key %d", i*3)
		}
	}
	if f.test(types.Null()) {
		t.Fatal("null probe key must never match (inner-join semantics)")
	}
	if f.test(types.Int(-5)) || f.test(types.Int(400)) {
		t.Fatal("keys outside [min, max] must be rejected by bounds")
	}
	// In-range non-members mostly miss: at ~10 bits/key, k=2, well under
	// half may alias. The interesting property — false negatives are
	// impossible — is asserted above; this guards against a degenerate
	// all-ones filter.
	fp := 0
	for i := 0; i < 297; i++ {
		if i%3 != 0 && f.test(types.Int(int64(i))) {
			fp++
		}
	}
	if fp > 99 {
		t.Fatalf("%d/198 false positives; filter is degenerate", fp)
	}

	empty := newRuntimeFilter(1, 0)
	if empty.test(types.Int(7)) {
		t.Fatal("empty build must drop every probe row")
	}
	nullOnly := newRuntimeFilter(2, 3)
	nullOnly.add(types.Null())
	if nullOnly.test(types.Int(7)) {
		t.Fatal("all-null build must drop every probe row")
	}
}

func TestRuntimeFilterMergeMatchesSerial(t *testing.T) {
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = int64(i*7 - 300)
	}
	serial := newRuntimeFilter(0, len(keys))
	for _, k := range keys {
		serial.add(types.Int(k))
	}
	// Partials sized for the full build share the serial geometry, so the
	// OR-merge must reproduce the serial filter bit for bit.
	merged := newRuntimeFilter(0, len(keys))
	for part := 0; part < 4; part++ {
		p := newRuntimeFilter(0, len(keys))
		for i := part * 50; i < (part+1)*50; i++ {
			p.add(types.Int(keys[i]))
		}
		merged.merge(p)
	}
	if !reflect.DeepEqual(serial.words, merged.words) {
		t.Fatal("merged partials diverge from serial build")
	}
	if types.Compare(serial.min, merged.min) != 0 || types.Compare(serial.max, merged.max) != 0 {
		t.Fatalf("merged bounds [%v,%v] != serial [%v,%v]", merged.min, merged.max, serial.min, serial.max)
	}
}

func TestRuntimeFilterAdaptiveDisable(t *testing.T) {
	set := NewRuntimeFilterSet(nil)
	f := newRuntimeFilter(0, 10)
	for i := 0; i < 10; i++ {
		f.add(types.Int(int64(i)))
	}
	c := &rfConsumer{set: set, filters: []*RuntimeFilter{f}, cols: []int{0}}
	clk := storage.NewClock(storage.DefaultCostModel())

	// Every probe row matches: drop rate 0 is below break-even, so the
	// filter must turn itself off at the first window boundary.
	for i := 0; i < rfWindow; i++ {
		if !c.admit(clk, types.Row{types.Int(int64(i % 10))}) {
			t.Fatalf("row %d wrongly dropped", i)
		}
	}
	if f.enabled() {
		t.Fatal("non-selective filter still enabled after a full window")
	}
	if _, _, _, disabled := set.Snapshot(); disabled != 1 {
		t.Fatalf("disabled count %d, want 1", disabled)
	}
	// A disabled filter stops charging membership tests.
	before := clk.Units()
	for i := 0; i < 100; i++ {
		c.admit(clk, types.Row{types.Int(int64(i))})
	}
	if clk.Units() != before {
		t.Fatal("disabled filter still accrues cost")
	}

	// A selective filter (every probe misses) must stay enabled.
	sel := newRuntimeFilter(1, 10)
	sel.add(types.Int(1000))
	cs := &rfConsumer{set: set, filters: []*RuntimeFilter{sel}, cols: []int{0}}
	for i := 0; i < 3*rfWindow; i++ {
		if cs.admit(clk, types.Row{types.Int(int64(i % 10))}) {
			t.Fatalf("row %d wrongly admitted", i)
		}
	}
	if !sel.enabled() {
		t.Fatal("selective filter disabled itself")
	}
}

// rfTestJoinPlan hand-builds the fact-probe hash join the planting pass
// targets: SeqScan(fact) joined to SeqScan(dim) on column 0.
func rfTestJoinPlan(t *testing.T, cat *catalog.Catalog) *plan.JoinNode {
	t.Helper()
	mkScan := func(name, alias string) *plan.ScanNode {
		tbl, ok := cat.Table(name)
		if !ok {
			t.Fatalf("table %s missing", name)
		}
		s := &plan.ScanNode{Table: tbl, Alias: alias}
		s.Out = tbl.Schema.WithTable(alias)
		s.Title = "SeqScan(" + alias + ")"
		s.Prop = plan.Props{EstRows: float64(tbl.Heap.NumRows())}
		return s
	}
	l, r := mkScan("fact", "f"), mkScan("dim", "d")
	j := &plan.JoinNode{Alg: plan.JoinHash, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	j.Kids = []plan.Node{l, r}
	j.Out = l.Out.Concat(r.Out)
	j.Title = "HashJoin"
	j.Prop = plan.Props{EstRows: 1}
	return j
}

func rfTestCatalog(t *testing.T, factRows, dimRows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	f, err := cat.CreateTable("fact", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < factRows; i++ {
		cat.Insert(nil, f, types.Row{types.Int(int64(i)), types.Int(int64(i % 13))})
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
	return cat
}

func rfRunPlan(t *testing.T, root plan.Node, filtered bool) (float64, []string, *Context) {
	t.Helper()
	ctx := NewContext()
	if filtered {
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

// TestRuntimeFilterExactAcrossSelectivity: a runtime filter must never
// change results, whatever its hit rate — including the non-selective case
// where adaptive disable fires mid-query — and a selective one must pay for
// itself.
func TestRuntimeFilterExactAcrossSelectivity(t *testing.T) {
	cases := []struct {
		name    string
		dimRows int
	}{
		{"selective", 40},      // ~1% hit rate: filter stays on
		{"nonselective", 4000}, // 100% hit rate: disable fires mid-query
		{"mixed-window", 400},  // 10% hit rate: hovers near break-even
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := rfTestCatalog(t, 4000, tc.dimRows)

			root := rfTestJoinPlan(t, cat)
			if n := plan.PlanRuntimeFilters(root); n != 1 {
				t.Fatalf("planted %d, want 1", n)
			}
			units, rows, ctx := rfRunPlan(t, root, true)

			basePlan := rfTestJoinPlan(t, cat)
			baseUnits, baseRows, _ := rfRunPlan(t, basePlan, false)
			if strings.Join(baseRows, ";") != strings.Join(rows, ";") {
				t.Fatal("filtered results diverge from unfiltered")
			}
			if tc.name == "selective" && units >= baseUnits {
				t.Fatalf("selective filter did not pay: filtered %v >= unfiltered %v", units, baseUnits)
			}
			if _, tested, dropped, _ := ctx.RF.Snapshot(); tested == 0 || (tc.name == "selective" && dropped == 0) {
				t.Fatalf("filter inactive: tested=%d dropped=%d", tested, dropped)
			}
		})
	}
}

// TestPropertyRuntimeFiltersExact: for random join queries, enabling
// runtime filters must leave results byte-identical across the row and
// morsel-parallel paths, with and without memory pressure.
func TestPropertyRuntimeFiltersExact(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cat := catalog.New()
	f, err := cat.CreateTable("fact", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		row := types.Row{types.Int(rng.Int63n(50)), types.Int(rng.Int63n(30))}
		if rng.Intn(20) == 0 {
			row[0] = types.Null()
		}
		cat.Insert(nil, f, row)
	}
	d, err := cat.CreateTable("dim", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		// Only multiples of three: a third of fact keys can match, so the
		// filter does real dropping while staying enabled.
		row := types.Row{types.Int(3 * rng.Int63n(17)), types.Int(rng.Int63n(6))}
		if rng.Intn(15) == 0 {
			row[0] = types.Null()
		}
		cat.Insert(nil, d, row)
	}
	cat.AnalyzeTable(f, 8)
	cat.AnalyzeTable(d, 8)

	mkPlan := func(t *testing.T, q string) plan.Node {
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
		})
		return root
	}

	run := func(t *testing.T, root plan.Node, dop, mem int, filtered bool) ([]string, *Context) {
		t.Helper()
		ctx := NewContext()
		if dop > 1 {
			ctx.DOP = dop
		}
		if mem > 0 {
			ctx.Mem = NewMemBroker(mem)
		}
		if filtered {
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
		return out, ctx
	}

	configs := []struct {
		name string
		dop  int
	}{
		{"dop1", 1},
		{"dop2", 2},
		{"dop8", 8},
	}
	var planted, dropped int64
	for trial := 0; trial < 10; trial++ {
		q := "SELECT fact.k, fact.v, dim.w FROM fact, dim WHERE fact.k = dim.k"
		switch trial % 4 {
		case 1:
			q += fmt.Sprintf(" AND fact.v < %d", 5+rng.Int63n(25))
		case 2:
			q += fmt.Sprintf(" AND dim.w <> %d", rng.Int63n(6))
		case 3:
			q += fmt.Sprintf(" AND fact.v >= %d AND dim.w <= %d", rng.Int63n(10), 2+rng.Int63n(4))
		}
		for _, mem := range []int{0, 48} {
			for _, cfg := range configs {
				want, _ := run(t, mkPlan(t, q), cfg.dop, mem, false)

				root := mkPlan(t, q)
				planted += int64(plan.PlanRuntimeFilters(root))
				got, ctx := run(t, root, cfg.dop, mem, true)
				if strings.Join(got, ";") != strings.Join(want, ";") {
					t.Fatalf("%s mem=%d diverges on %q: got %d rows, want %d",
						cfg.name, mem, q, len(got), len(want))
				}
				if ctx.RF != nil {
					_, _, d, _ := ctx.RF.Snapshot()
					dropped += d
				}
			}
		}
	}
	if planted == 0 || dropped == 0 {
		t.Fatalf("property never exercised filters: planted=%d dropped=%d", planted, dropped)
	}
}
