package opt

import (
	"math"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// buildCat creates orders(id, cid, amount) / customer(id, region) with a
// foreign-key relationship and analyzed statistics.
func buildCat(t *testing.T, orders, customers int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cust, err := cat.CreateTable("customer", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "region", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < customers; i++ {
		cat.Insert(nil, cust, types.Row{types.Int(int64(i)), types.Int(int64(i % 5))})
	}
	ord, err := cat.CreateTable("orders", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "cid", Kind: types.KindInt},
		{Name: "amount", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orders; i++ {
		cat.Insert(nil, ord, types.Row{types.Int(int64(i)), types.Int(int64(i % customers)), types.Int(int64(i % 1000))})
	}
	cat.AnalyzeTable(cust, 16)
	cat.AnalyzeTable(ord, 16)
	return cat
}

func bindQ(t *testing.T, cat *catalog.Catalog, q string) *plan.Query {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	return bq
}

func TestEstimateSingleTableFilter(t *testing.T) {
	cat := buildCat(t, 10000, 100)
	o := New(cat)
	bq := bindQ(t, cat, "SELECT id FROM orders WHERE amount < 100")
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	// amount uniform 0..999 → ~10% of 10000 = 1000
	est := root.Props().EstRows
	if est < 500 || est > 2000 {
		t.Errorf("estimate %v, want ~1000", est)
	}
}

func TestJoinCardinalityEstimate(t *testing.T) {
	cat := buildCat(t, 10000, 100)
	o := New(cat)
	bq := bindQ(t, cat, "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id")
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	// FK join: every order matches exactly one customer → 10000 rows.
	est := root.Props().EstRows
	if est < 5000 || est > 20000 {
		t.Errorf("join estimate %v, want ~10000", est)
	}
}

func TestOptimizerPrefersSmallBuildSide(t *testing.T) {
	cat := buildCat(t, 20000, 50)
	o := New(cat)
	bq := bindQ(t, cat, "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id")
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The hash join should build on the small customer side (right child).
	var joins []*plan.JoinNode
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			joins = append(joins, j)
		}
	})
	if len(joins) != 1 {
		t.Fatalf("expected 1 join, got %d (%s)", len(joins), plan.PlanSignature(root))
	}
	j := joins[0]
	if j.Alg != plan.JoinHash {
		t.Fatalf("expected hash join, got %v", j.Alg)
	}
	if j.Right().Props().EstRows > j.Left().Props().EstRows {
		t.Errorf("build (right) side larger than probe: %v vs %v",
			j.Right().Props().EstRows, j.Left().Props().EstRows)
	}
}

func TestPercentileModeMoreConservative(t *testing.T) {
	cat := buildCat(t, 10000, 100)
	bq := bindQ(t, cat, "SELECT id FROM orders WHERE amount = 5")
	classic := New(cat)
	rootC, err := classic.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	robust := New(cat)
	robust.Opt.Mode = Percentile
	robust.Opt.PercentileP = 0.95
	rootR, err := robust.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rootR.Props().EstRows <= rootC.Props().EstRows {
		t.Errorf("percentile mode should over-estimate: %v vs %v",
			rootR.Props().EstRows, rootC.Props().EstRows)
	}
}

func TestCorrelatedModeFixesRedundantPredicate(t *testing.T) {
	// Lohman's war story: a pseudo-key predicate fully redundant with the
	// other predicates underestimates by orders of magnitude under
	// independence. Correlated mode with group stats must fix it.
	cat := catalog.New()
	tb, _ := cat.CreateTable("person", types.Schema{
		{Name: "lastname", Kind: types.KindInt},
		{Name: "pseudokey", Kind: types.KindInt}, // fully determined by lastname
	})
	for i := 0; i < 10000; i++ {
		ln := int64(i % 100)
		cat.Insert(nil, tb, types.Row{types.Int(ln), types.Int(ln * 7)})
	}
	cat.AnalyzeTable(tb, 16)
	cat.AnalyzeGroup(tb, []string{"lastname", "pseudokey"})

	bq := bindQ(t, cat, "SELECT lastname FROM person WHERE lastname = 10 AND pseudokey = 70")

	indep := New(cat)
	rootI, err := indep.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	corr := New(cat)
	corr.Opt.Mode = Correlated
	rootC, err := corr.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	actual := 100.0
	errI := math.Max(rootI.Props().EstRows, 1) / actual
	errC := math.Max(rootC.Props().EstRows, 1) / actual
	if errI > 0.5 {
		t.Errorf("independence should badly underestimate: est %v for actual %v", rootI.Props().EstRows, actual)
	}
	if errC < 0.5 || errC > 2 {
		t.Errorf("correlated mode should be near-exact: est %v for actual %v", rootC.Props().EstRows, actual)
	}

	// ANALYZE keeps the group: its statistics are recomputed with the rest,
	// not dropped with the TableStats they were recorded in.
	cat.AnalyzeTable(tb, 16)
	again, err := corr.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Props().EstRows, rootC.Props().EstRows; got != want {
		t.Errorf("after ANALYZE the correlated estimate is %v, was %v: the group statistics were lost", got, want)
	}
}

func TestFeedbackImprovesEstimate(t *testing.T) {
	cat := buildCat(t, 10000, 100)
	o := New(cat)
	bq := bindQ(t, cat, "SELECT id FROM orders WHERE amount = 7")
	root1, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	est1 := root1.Props().EstRows
	// Teach the optimizer the predicate actually returns 10x the estimate.
	var sig string
	plan.Walk(root1, func(n plan.Node) {
		if s, ok := n.(*plan.ScanNode); ok {
			sig = s.Prop.Signature
		}
	})
	if sig == "" {
		t.Fatal("scan signature missing")
	}
	o.Cards.Learn(sig, est1, est1*10)
	root2, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root2.Props().EstRows < est1*5 {
		t.Errorf("feedback not applied: %v -> %v", est1, root2.Props().EstRows)
	}
}

func TestEnumerateFullPlans(t *testing.T) {
	cat := buildCat(t, 5000, 100)
	bq := bindQ(t, cat, "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id AND customer.region = 1")
	o := New(cat)
	plans, err := o.EnumerateFullPlans(bq, nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 4 {
		t.Fatalf("expected several alternatives, got %d", len(plans))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].EstCost < plans[i-1].EstCost {
			t.Fatal("plans not sorted by cost")
		}
	}
	// The DP choice should cost no more than the best enumerated plan.
	best, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Props().EstCost > plans[0].EstCost*1.01 {
		t.Errorf("DP plan (%.1f) worse than enumerated best (%.1f)",
			best.Props().EstCost, plans[0].EstCost)
	}
}

func TestEquivalentQueriesSamePlan(t *testing.T) {
	cat := buildCat(t, 5000, 100)
	o := New(cat)
	variants := []string{
		"SELECT id FROM orders WHERE NOT (amount <> 10)",
		"SELECT id FROM orders WHERE amount = 10",
		"SELECT id FROM orders WHERE 10 = amount",
	}
	var sigs, ests []string
	for _, q := range variants {
		bq := bindQ(t, cat, q)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, plan.PlanSignature(root))
		var scanSig string
		plan.Walk(root, func(n plan.Node) {
			if s, ok := n.(*plan.ScanNode); ok {
				scanSig = s.Prop.Signature
			}
		})
		ests = append(ests, scanSig)
	}
	for i := 1; i < len(sigs); i++ {
		if sigs[i] != sigs[0] {
			t.Errorf("plan differs for variant %d: %s vs %s", i, sigs[i], sigs[0])
		}
		if ests[i] != ests[0] {
			t.Errorf("predicate signature differs for variant %d: %s vs %s", i, ests[i], ests[0])
		}
	}
	// FROM order must not matter either.
	a := bindQ(t, cat, "SELECT 1 FROM orders, customer WHERE orders.cid = customer.id")
	b := bindQ(t, cat, "SELECT 1 FROM customer, orders WHERE orders.cid = customer.id")
	ra, err := o.Optimize(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := o.Optimize(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := ra.Props().EstCost, rb.Props().EstCost
	if math.Abs(ca-cb)/math.Max(ca, cb) > 1e-9 {
		t.Errorf("FROM order changed plan cost: %v vs %v", ca, cb)
	}
}

func TestPlanDiagramAndReduction(t *testing.T) {
	cat := buildCat(t, 20000, 200)
	// add an index so the diagram has at least two plan regions
	cat.CreateIndex(nil, "orders", "o_amount", []string{"amount"}, false)
	ordT, _ := cat.Table("orders")
	cat.AnalyzeTable(ordT, 16)
	o := New(cat)
	bq := bindQ(t, cat, "SELECT id FROM orders WHERE amount <= ?")
	var xs []types.Value
	for v := int64(0); v <= 1000; v += 50 {
		xs = append(xs, types.Int(v))
	}
	d, err := o.BuildPlanDiagram(bq, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPlans() < 2 {
		t.Fatalf("diagram should show an index/scan crossover, got %d plans:\n%s", d.NumPlans(), d.Render())
	}
	reduced := d.Reduce(0.25)
	if reduced.NumPlans() > d.NumPlans() {
		t.Error("reduction increased plan count")
	}
	// lambda=0 must be a no-op or mild; large lambda collapses more.
	collapsed := d.Reduce(10)
	if collapsed.NumPlans() > reduced.NumPlans() {
		t.Error("larger lambda should not increase plan count")
	}
}

func TestGJoinOnlyModeUsesGJoin(t *testing.T) {
	cat := buildCat(t, 5000, 100)
	o := New(cat)
	o.Opt.Joins = 1 << plan.JoinGeneral
	bq := bindQ(t, cat, "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id")
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.PlanSignature(root), "GJoin") {
		t.Errorf("a {JoinGeneral} repertoire should plan GJoin: %s", plan.PlanSignature(root))
	}
}

func TestValidityWindowViaSignatureProbing(t *testing.T) {
	// The remainder-plan signature should be stable for small cardinality
	// perturbations and change for huge ones (basis of POP checks).
	cat := buildCat(t, 20000, 100)
	o := New(cat)
	rels := []BaseRel{
		BaseRelFromTable(mustTable(t, cat, "orders"), "orders"),
		BaseRelFromTable(mustTable(t, cat, "customer"), "customer"),
	}
	bq := bindQ(t, cat, "SELECT orders.id FROM orders, customer WHERE orders.cid = customer.id")
	node, _, err := o.OptimizeJoinGraph(rels, bq.Conjuncts, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := plan.PlanSignature(node)
	// Shrink customer to 1 row: plan shape may change (e.g. build side).
	tiny := rels
	tiny[1].Rows = 1
	tiny[1].Pages = 1
	node2, _, err := o.OptimizeJoinGraph(tiny, bq.Conjuncts, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = base
	_ = node2 // signatures may or may not differ; the API must at least be stable
}

func mustTable(t *testing.T, cat *catalog.Catalog, name string) *catalog.Table {
	t.Helper()
	tb, ok := cat.Table(name)
	if !ok {
		t.Fatalf("table %s missing", name)
	}
	return tb
}

func TestCostMonotoneInRows(t *testing.T) {
	o := New(catalog.New())
	if o.costSeqScan(10, 1000) >= o.costSeqScan(100, 10000) {
		t.Error("seq scan cost should grow with size")
	}
	if o.costHashJoin(100, 100, 100) >= o.costHashJoin(10000, 10000, 10000) {
		t.Error("hash join cost should grow with size")
	}
	small := o.costGJoin(100, 1e6, 1000)
	big := o.costNLJoin(100, 1e6, 1000)
	if small >= big {
		t.Error("gjoin should beat NL for large inputs")
	}
}

func TestTempRelOptimization(t *testing.T) {
	cat := buildCat(t, 1000, 50)
	o := New(cat)
	schema := types.Schema{{Table: "tmp", Name: "cid", Kind: types.KindInt}}
	var rows []types.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, types.Row{types.Int(int64(i))})
	}
	rels := []BaseRel{
		TempRel("tmp", schema, rows),
		BaseRelFromTable(mustTable(t, cat, "customer"), "customer"),
	}
	// tmp.cid = customer.id over the combined schema (tmp col 0, cust col 1)
	cond := []expr.Expr{&expr.Bin{Op: expr.OpEQ,
		L: &expr.Col{Index: 0, Name: "tmp.cid", Typ: types.KindInt},
		R: &expr.Col{Index: 1, Name: "customer.id", Typ: types.KindInt},
	}}
	node, cols, err := o.OptimizeJoinGraph(rels, cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 {
		t.Fatalf("cols = %v", cols)
	}
	if !strings.Contains(plan.PlanSignature(node), "TempScan") {
		t.Errorf("plan should scan the temp rel: %s", plan.PlanSignature(node))
	}
	if node.Props().EstRows < 10 || node.Props().EstRows > 40 {
		t.Errorf("temp join estimate %v, want ~20", node.Props().EstRows)
	}
}
