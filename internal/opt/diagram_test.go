package opt

import (
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// diagramCat builds a two-column indexed table for 2-D diagrams.
func diagramCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb, err := cat.CreateTable("dd", types.Schema{
		{Name: "x", Kind: types.KindInt},
		{Name: "y", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8000; i++ {
		cat.Insert(nil, tb, types.Row{types.Int(int64(i % 1000)), types.Int(int64(i % 777))})
	}
	if _, err := cat.CreateIndex(nil, "dd", "dd_x", []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	cat.AnalyzeTable(tb, 16)
	return cat
}

func TestTwoDimensionalPlanDiagram(t *testing.T) {
	cat := diagramCat(t)
	o := New(cat)
	st, err := sql.Parse("SELECT COUNT(*) FROM dd WHERE x <= ? AND y <= ?")
	if err != nil {
		t.Fatal(err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	var xs, ys []types.Value
	for v := int64(1); v <= 1000; v += 111 {
		xs = append(xs, types.Int(v))
	}
	for v := int64(100); v <= 700; v += 150 {
		ys = append(ys, types.Int(v))
	}
	d, err := o.BuildPlanDiagram(bq, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != len(ys) || len(d.Cells[0]) != len(xs) {
		t.Fatalf("grid shape wrong: %dx%d", len(d.Cells), len(d.Cells[0]))
	}
	if d.NumPlans() < 2 {
		t.Errorf("x-selectivity sweep should cross the index boundary:\n%s", d.Render())
	}
	reduced := d.Reduce(0.3)
	if reduced.NumPlans() > d.NumPlans() {
		t.Error("reduction increased plans")
	}
	if !strings.Contains(d.Render(), "distinct plans") {
		t.Error("render missing summary")
	}
	// All cell costs recorded and positive.
	for _, row := range d.Costs {
		for _, c := range row {
			if c <= 0 {
				t.Fatal("missing cell cost")
			}
		}
	}
}

func TestEnumerateCorePlansDedupAndOrder(t *testing.T) {
	cat := buildCat(t, 4000, 80)
	o := New(cat)
	rels := []BaseRel{
		BaseRelFromTable(mustTable(t, cat, "orders"), "orders"),
		BaseRelFromTable(mustTable(t, cat, "customer"), "customer"),
	}
	cond := []expr.Expr{&expr.Bin{Op: expr.OpEQ,
		L: &expr.Col{Index: 1, Name: "orders.cid", Typ: types.KindInt},
		R: &expr.Col{Index: 3, Name: "customer.id", Typ: types.KindInt}}}
	plans, err := o.EnumerateCorePlans(rels, cond, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("too few core plans: %d", len(plans))
	}
	seen := map[string]bool{}
	for i, p := range plans {
		if seen[p.Sig] {
			t.Errorf("duplicate signature %s", p.Sig)
		}
		seen[p.Sig] = true
		if i > 0 && plans[i].Cost < plans[i-1].Cost {
			t.Error("core plans not sorted by cost")
		}
		if len(p.Cols) != 5 {
			t.Errorf("cols = %v", p.Cols)
		}
	}
}

func TestRepertoireFlags(t *testing.T) {
	cat := buildCat(t, 3000, 60)
	// An index on the inner's key lets one split price all five algorithms.
	if _, err := cat.CreateIndex(nil, "customer", "c_id", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	const (
		equi   = "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id"
		noEqui = "SELECT orders.id FROM orders, customer WHERE orders.cid < customer.id"
	)
	cases := []struct {
		name    string
		joins   plan.JoinAlgs
		query   string
		wantAlg string // "" = planning fails
	}{
		{"only-merge", 1 << plan.JoinMerge, equi, "MergeJoin"},
		{"only-nl", 1 << plan.JoinNL, equi, "NestedLoopJoin"},
		{"only-gjoin", 1 << plan.JoinGeneral, equi, "GJoin"},
		{"gjoin-no-equi-key", 1 << plan.JoinGeneral, noEqui, "NestedLoopJoin"},
		{"all-five", 1<<plan.JoinHash | 1<<plan.JoinMerge | 1<<plan.JoinNL | 1<<plan.JoinIndexNL | 1<<plan.JoinGeneral, equi, "Join"},
		{"empty", 0, equi, ""},
	}
	for _, c := range cases {
		o := New(cat)
		o.Opt.Joins = c.joins
		root, err := o.Optimize(bindQ(t, cat, c.query), nil)
		if c.wantAlg == "" {
			if err == nil {
				t.Errorf("%s: an empty repertoire should fail to plan a join", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(plan.PlanSignature(root), c.wantAlg) {
			t.Errorf("%s: plan %s missing %s", c.name, plan.PlanSignature(root), c.wantAlg)
		}
	}
}

func TestIndexPaths(t *testing.T) {
	cat := diagramCat(t)
	const (
		selective   = "SELECT y FROM dd WHERE x <= 5"
		unselective = "SELECT y FROM dd WHERE x <= 900"
	)
	cases := []struct {
		mode      IndexPaths
		query     string
		wantIndex bool
	}{
		{IndexCosted, selective, true},
		{IndexCosted, unselective, false},
		{IndexNever, selective, false},
		{IndexAlways, unselective, true},
	}
	for _, c := range cases {
		o := New(cat)
		o.Opt.IndexPaths = c.mode
		root, err := o.Optimize(bindQ(t, cat, c.query), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sig := plan.PlanSignature(root); strings.Contains(sig, "IndexScan") != c.wantIndex {
			t.Errorf("mode %d on %q: plan %s, want IndexScan %v", c.mode, c.query, sig, c.wantIndex)
		}
	}
}
