package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Grouped-query property: random GROUP BY queries must match a brute-force
// reference that groups with a map and folds aggregates directly, under every
// budget and DOP the aggregation table serves: resident, spilled to
// partitions, re-aggregated by the sorted fallback, per-morsel partials and
// their merge.

// aggPropertyDB builds g(k, v, w, s, u, f): k, w and s draw from a few
// values and u from a hundred, so key sets range from 8 groups to hundreds;
// k, v, s and f are sometimes NULL.
func aggPropertyDB(t *testing.T, rng *rand.Rand, rows int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb, err := cat.CreateTable("g", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
		{Name: "u", Kind: types.KindInt},
		{Name: "f", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := types.Row{
			types.Int(rng.Int63n(8)),
			types.Int(rng.Int63n(30)),
			types.Int(rng.Int63n(5)),
			types.Str(string(rune('a' + rng.Intn(6)))),
			types.Int(rng.Int63n(100)),
			types.Float(float64(rng.Int63n(10000)) / 100),
		}
		for _, c := range []int{0, 1, 3, 5} {
			if rng.Intn(15) == 0 {
				row[c] = types.Null()
			}
		}
		cat.Insert(nil, tb, row)
	}
	cat.AnalyzeTable(tb, 8)
	return cat
}

// propAgg is one aggregate the property draws: fn over column col of g (-1:
// COUNT(*)).
type propAgg struct {
	sql      string
	fn       string
	col      int
	distinct bool
}

var propAggs = []propAgg{
	{"COUNT(*)", "COUNT", -1, false},
	{"COUNT(v)", "COUNT", 1, false},
	{"SUM(v)", "SUM", 1, false},
	{"AVG(v)", "AVG", 1, false},
	{"MIN(v)", "MIN", 1, false},
	{"MAX(v)", "MAX", 1, false},
	{"COUNT(DISTINCT v)", "COUNT", 1, true},
	{"SUM(DISTINCT v)", "SUM", 1, true},
	{"SUM(f)", "SUM", 5, false},
	{"AVG(f)", "AVG", 5, false},
	{"MAX(f)", "MAX", 5, false},
	{"MIN(s)", "MIN", 3, false},
	{"MAX(s)", "MAX", 3, false},
	{"COUNT(DISTINCT s)", "COUNT", 3, true},
}

var propKeys = [][]int{{0}, {3}, {4}, {0, 2}, {3, 4}, {0, 3, 2}}

// ref folds one aggregate over a group's rows the slow way.
func (a propAgg) ref(rows []types.Row) types.Value {
	if a.col < 0 {
		return types.Int(int64(len(rows)))
	}
	var vals []types.Value
	seen := map[string]bool{}
	for _, r := range rows {
		if v := r[a.col]; !v.IsNull() && !(a.distinct && seen[v.String()]) {
			seen[v.String()] = true
			vals = append(vals, v)
		}
	}
	if a.fn == "COUNT" {
		return types.Int(int64(len(vals)))
	}
	if len(vals) == 0 {
		return types.Null()
	}
	sum, best := 0.0, vals[0]
	for _, v := range vals {
		sum += v.AsFloat()
		if (a.fn == "MIN" && types.Less(v, best)) || (a.fn == "MAX" && types.Less(best, v)) {
			best = v
		}
	}
	switch a.fn {
	case "SUM":
		return types.Float(sum)
	case "AVG":
		return types.Float(sum / float64(len(vals)))
	}
	return best
}

// refGroups groups the rows of g passing filter on the key columns.
func refGroups(t *testing.T, cat *catalog.Catalog, filter expr.Expr, key []int) map[string][]types.Row {
	t.Helper()
	tb, _ := cat.Table("g")
	groups := map[string][]types.Row{}
	var err error
	tb.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
		if filter != nil {
			ok, e2 := expr.EvalPredicate(filter, r, nil)
			if e2 != nil {
				err = e2
				return false
			}
			if !ok {
				return true
			}
		}
		k := appendCols(nil, r, key).String()
		groups[k] = append(groups[k], r.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

func TestPropertyGroupedAggregatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	cat := aggPropertyDB(t, rng, 3000)
	shrink := func(step int) int { return max(64, 1024>>step) }
	budgets := []struct {
		name   string
		budget int
		sched  func(int) int
	}{{"unlimited", 1 << 30, nil}, {"64 groups", 64, nil}, {"shrinking", 1024, shrink}}
	cols := []string{"k", "v", "w", "s", "u", "f"}
	for trial := 0; trial < 24; trial++ {
		// Random filter on w (and sometimes v).
		var filterSQL string
		var filterExpr expr.Expr
		switch rng.Intn(3) {
		case 0:
			c := rng.Int63n(5)
			filterSQL = fmt.Sprintf(" WHERE w < %d", c)
			filterExpr = &expr.Bin{Op: expr.OpLT,
				L: &expr.Col{Index: 2, Typ: types.KindInt}, R: &expr.Const{V: types.Int(c)}}
		case 1:
			c := rng.Int63n(30)
			filterSQL = fmt.Sprintf(" WHERE v >= %d", c)
			filterExpr = &expr.Bin{Op: expr.OpGE,
				L: &expr.Col{Index: 1, Typ: types.KindInt}, R: &expr.Const{V: types.Int(c)}}
		}
		key := propKeys[rng.Intn(len(propKeys))]
		var keySQL, aggSQL []string
		for _, c := range key {
			keySQL = append(keySQL, cols[c])
		}
		aggs := make([]propAgg, 1+rng.Intn(5))
		for i := range aggs {
			aggs[i] = propAggs[rng.Intn(len(propAggs))]
			aggSQL = append(aggSQL, aggs[i].sql)
		}
		q := "SELECT " + strings.Join(append(keySQL, aggSQL...), ", ") + " FROM g" +
			filterSQL + " GROUP BY " + strings.Join(keySQL, ", ")
		want := refGroups(t, cat, filterExpr, key)
		check := func(cfg string, rows []types.Row) {
			t.Helper()
			if len(rows) != len(want) {
				t.Fatalf("%q %s: %d groups, want %d", q, cfg, len(rows), len(want))
			}
			for _, r := range rows {
				in, ok := want[r[:len(key)].String()]
				if !ok {
					t.Fatalf("%q %s: no such group %v", q, cfg, r)
				}
				for i, a := range aggs {
					got, ref := r[len(key)+i], a.ref(in)
					exact := got.K == ref.K && types.Compare(got, ref) == 0
					if got.K == types.KindFloat && ref.K == types.KindFloat { // partial sums reassociate
						exact = math.Abs(got.F-ref.F) <= 1e-9*math.Max(1, math.Abs(ref.F))
					}
					if !exact {
						t.Fatalf("%q %s group %v: %s = %v, want %v", q, cfg, r[:len(key)], a.sql, got, ref)
					}
				}
			}
		}
		for _, b := range budgets {
			for _, dop := range []int{1, 2, 8} {
				rows, _ := runSpillQuery(t, cat, q, b.budget, dop, b.sched)
				check(fmt.Sprintf("%s dop=%d", b.name, dop), rows)
			}
		}
	}
}

// TestPropertyHavingMatchesPostFilter: HAVING must equal filtering the full
// grouped result.
func TestPropertyHavingMatchesPostFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	cat := aggPropertyDB(t, rng, 400)
	o := opt.New(cat)
	for trial := 0; trial < 20; trial++ {
		threshold := 10 + rng.Int63n(60)
		full := "SELECT k, COUNT(*) FROM g GROUP BY k ORDER BY k"
		having := fmt.Sprintf("SELECT k, COUNT(*) FROM g GROUP BY k HAVING COUNT(*) > %d ORDER BY k", threshold)
		runQ := func(q string) []types.Row {
			st, _ := sql.Parse(q)
			bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
			if err != nil {
				t.Fatal(err)
			}
			root, err := o.Optimize(bq, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := Run(root, NewContext())
			if err != nil {
				t.Fatal(err)
			}
			return rows
		}
		all := runQ(full)
		got := runQ(having)
		var want []string
		for _, r := range all {
			if r[1].I > threshold {
				want = append(want, r.String())
			}
		}
		var gotS []string
		for _, r := range got {
			gotS = append(gotS, r.String())
		}
		if strings.Join(want, ";") != strings.Join(gotS, ";") {
			t.Fatalf("HAVING > %d diverges: got %v want %v", threshold, gotS, want)
		}
	}
}
