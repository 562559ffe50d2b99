package exec

import (
	"fmt"
	"math/rand"
	"sort"
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

// The end-to-end correctness property: for randomly generated queries, the
// optimizer+executor must produce exactly the rows a brute-force reference
// evaluator produces — under every estimation mode, with and without
// indexes, and under severe memory pressure. The reference shares only the
// binder and the expression evaluator (both unit-tested independently); the
// optimizer, all join algorithms, scans and spills are the code under test.

func propertyDB(t *testing.T, rng *rand.Rand) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	t1, err := cat.CreateTable("t1", types.Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		row := types.Row{types.Int(rng.Int63n(20)), types.Int(rng.Int63n(10)), types.Int(rng.Int63n(50))}
		if rng.Intn(20) == 0 {
			row[2] = types.Null()
		}
		cat.Insert(nil, t1, row)
	}
	t2, err := cat.CreateTable("t2", types.Schema{
		{Name: "d", Kind: types.KindInt},
		{Name: "e", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		cat.Insert(nil, t2, types.Row{types.Int(int64(i % 20)), types.Int(rng.Int63n(5))})
	}
	cat.AnalyzeTable(t1, 8)
	cat.AnalyzeTable(t2, 8)
	return cat
}

// randomQuery generates SQL over t1 (and sometimes t2 with a join).
func randomQuery(rng *rand.Rand) string {
	var sb strings.Builder
	sb.WriteString("SELECT t1.a, t1.c")
	join := rng.Intn(2) == 0
	if join {
		sb.WriteString(", t2.e FROM t1, t2 WHERE t1.a = t2.d")
	} else {
		sb.WriteString(" FROM t1 WHERE t1.a >= 0")
	}
	// Random extra conjuncts.
	preds := []func() string{
		func() string { return fmt.Sprintf("t1.b %s %d", cmpOp(rng), rng.Int63n(10)) },
		func() string { return fmt.Sprintf("t1.c %s %d", cmpOp(rng), rng.Int63n(50)) },
		func() string {
			return fmt.Sprintf("t1.a IN (%d, %d, %d)", rng.Int63n(20), rng.Int63n(20), rng.Int63n(20))
		},
		func() string { return fmt.Sprintf("t1.c BETWEEN %d AND %d", rng.Int63n(25), 25+rng.Int63n(25)) },
		func() string { return fmt.Sprintf("NOT (t1.b = %d)", rng.Int63n(10)) },
		func() string { return "t1.c IS NOT NULL" },
	}
	n := rng.Intn(3)
	for i := 0; i < n; i++ {
		sb.WriteString(" AND ")
		sb.WriteString(preds[rng.Intn(len(preds))]())
	}
	return sb.String()
}

func cmpOp(rng *rand.Rand) string {
	return []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
}

// referenceRows evaluates the bound query by brute force.
func referenceRows(t *testing.T, bq *plan.Query) []string {
	t.Helper()
	var rels [][]types.Row
	for _, r := range bq.Rels {
		var rows []types.Row
		r.Table.Heap.Scan(nil, func(_ storage.RID, row types.Row) bool {
			rows = append(rows, row.Clone()) // the scan lends it
			return true
		})
		rels = append(rels, rows)
	}
	pred := expr.AndAll(bq.Conjuncts)
	var out []string
	var rec func(i int, acc types.Row)
	rec = func(i int, acc types.Row) {
		if i == len(rels) {
			if pred != nil {
				ok, err := expr.EvalPredicate(pred, acc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return
				}
			}
			proj := make([]string, len(bq.Projections))
			for pi, p := range bq.Projections {
				v, err := p.Eval(acc, nil)
				if err != nil {
					t.Fatal(err)
				}
				proj[pi] = v.String()
			}
			out = append(out, strings.Join(proj, ","))
			return
		}
		for _, row := range rels[i] {
			rec(i+1, append(acc[:len(acc):len(acc)], row...))
		}
	}
	rec(0, nil)
	sort.Strings(out)
	return out
}

func engineRows(t *testing.T, o *opt.Optimizer, bq *plan.Query, memBudget int) []string {
	t.Helper()
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	ctx := NewContext()
	if memBudget > 0 {
		ctx.Mem = NewMemBroker(memBudget)
	}
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatalf("run: %v", err)
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
	return out
}

func TestPropertyEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	cat := propertyDB(t, rng)
	configs := []struct {
		name string
		mod  func(*opt.Optimizer)
	}{
		{"classic", func(*opt.Optimizer) {}},
		{"percentile", func(o *opt.Optimizer) { o.Opt.Mode = opt.Percentile }},
		{"correlated", func(o *opt.Optimizer) { o.Opt.Mode = opt.Correlated }},
		{"gjoin-only", func(o *opt.Optimizer) { o.Opt.Joins = 1 << plan.JoinGeneral }},
		{"tiny-memory", func(o *opt.Optimizer) { o.Opt.MemBudgetRows = 8 }},
		{"bushy", func(o *opt.Optimizer) { o.Opt.BushyJoins = true }},
	}
	for trial := 0; trial < 60; trial++ {
		q := randomQuery(rng)
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("generated unparsable SQL %q: %v", q, err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatalf("bind %q: %v", q, err)
		}
		want := referenceRows(t, bq)
		for _, cfg := range configs {
			o := opt.New(cat)
			cfg.mod(o)
			mem := 0
			if cfg.name == "tiny-memory" {
				mem = 8
			}
			bq2, _ := plan.Bind(st.(*sql.SelectStmt), cat)
			got := engineRows(t, o, bq2, mem)
			if len(got) != len(want) || strings.Join(got, ";") != strings.Join(want, ";") {
				t.Fatalf("config %s diverges from reference on %q: got %d rows, want %d",
					cfg.name, q, len(got), len(want))
			}
		}
	}
}

// TestPropertyIndexPathsMatchReference repeats the property with indexes in
// place, which flips many plans to index scans and index-NL joins.
func TestPropertyIndexPathsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cat := propertyDB(t, rng)
	if _, err := cat.CreateIndex(nil, "t1", "t1_a", []string{"a"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex(nil, "t1", "t1_c", []string{"c"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateIndex(nil, "t2", "t2_d", []string{"d"}, false); err != nil {
		t.Fatal(err)
	}
	t1, _ := cat.Table("t1")
	t2, _ := cat.Table("t2")
	cat.AnalyzeTable(t1, 8)
	cat.AnalyzeTable(t2, 8)
	sawIndexPlan := false
	for trial := 0; trial < 60; trial++ {
		q := randomQuery(rng)
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRows(t, bq)
		o := opt.New(cat)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan.PlanSignature(root), "Index") {
			sawIndexPlan = true
		}
		ctx := NewContext()
		rows, err := Run(root, ctx)
		if err != nil {
			t.Fatalf("run %q: %v", q, err)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			vals := make([]string, len(r))
			for j, v := range r {
				vals[j] = v.String()
			}
			got[i] = strings.Join(vals, ",")
		}
		sort.Strings(got)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("indexed plan diverges on %q (plan %s): got %d want %d rows",
				q, plan.PlanSignature(root), len(got), len(want))
		}
		// Forced index plans must agree too.
		forced := opt.New(cat)
		forced.Opt.IndexPaths = opt.IndexAlways
		rootIdx, err := forced.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan.PlanSignature(rootIdx), "Index") {
			sawIndexPlan = true
		}
		rows2, err := Run(rootIdx, NewContext())
		if err != nil {
			t.Fatalf("forced index run %q: %v", q, err)
		}
		if len(rows2) != len(want) {
			t.Fatalf("forced index plan diverges on %q: got %d want %d", q, len(rows2), len(want))
		}
	}
	if !sawIndexPlan {
		t.Error("no trial used an index plan; test lost its teeth")
	}
}
