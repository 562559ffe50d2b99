package adaptive

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// correlatedDB builds a schema where independence assumptions badly
// mis-estimate: fact(fid, a, b, dim) with a and b perfectly correlated, and
// dim(id, cat).
func correlatedDB(t *testing.T, facts, dims int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	fact, err := cat.CreateTable("fact", types.Schema{
		{Name: "fid", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindInt},
		{Name: "dim", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < facts; i++ {
		a := int64(i % 50)
		cat.Insert(nil, fact, types.Row{
			types.Int(int64(i)), types.Int(a), types.Int(a * 3), types.Int(int64(i % dims)),
		})
	}
	dim, err := cat.CreateTable("dim", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "cat", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dims; i++ {
		cat.Insert(nil, dim, types.Row{types.Int(int64(i)), types.Int(int64(i % 7))})
	}
	cat.AnalyzeTable(fact, 16)
	cat.AnalyzeTable(dim, 16)
	return cat
}

func bindSelect(t *testing.T, cat *catalog.Catalog, q string) *plan.Query {
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

func sortedStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// classicRows runs q's optimize-once plan: the rows every policy must return.
func classicRows(t *testing.T, cat *catalog.Catalog, q string) []types.Row {
	t.Helper()
	root, err := opt.New(cat).Optimize(bindSelect(t, cat, q), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(root, exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestProgressivePoliciesAgreeOnResults(t *testing.T) {
	cat := correlatedDB(t, 3000, 60)
	q := `SELECT fact.fid, dim.cat FROM fact, dim
		WHERE fact.dim = dim.id AND fact.a = 10 AND fact.b = 30 AND dim.cat < 5`
	ref := sortedStrings(classicRows(t, cat, q))
	if len(ref) == 0 {
		t.Fatal("query returned nothing; bad test setup")
	}
	for _, policy := range []ReoptPolicy{Checked, Eager} {
		bq := bindSelect(t, cat, q)
		p := &Progressive{Opt: opt.New(cat), Policy: policy}
		ctx := exec.NewContext()
		res, err := p.Execute(bq, ctx)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if got := sortedStrings(res.Rows); strings.Join(got, ";") != strings.Join(ref, ";") {
			t.Errorf("%v: results differ (%d vs %d rows)", policy, len(got), len(ref))
		}
	}
}

func TestProgressiveThreeWayJoin(t *testing.T) {
	cat := correlatedDB(t, 2000, 40)
	// Add a second dimension-ish table.
	cats, _ := cat.CreateTable("cats", types.Schema{
		{Name: "cat", Kind: types.KindInt},
		{Name: "label", Kind: types.KindString},
	})
	for i := 0; i < 7; i++ {
		cat.Insert(nil, cats, types.Row{types.Int(int64(i)), types.Str(fmt.Sprintf("c%d", i))})
	}
	cat.AnalyzeTable(cats, 4)
	q := `SELECT fact.fid, cats.label FROM fact, dim, cats
		WHERE fact.dim = dim.id AND dim.cat = cats.cat AND fact.a = 3`
	classic := classicRows(t, cat, q)
	pop := &Progressive{Opt: opt.New(cat), Policy: Eager}
	resP, err := pop.Execute(bindSelect(t, cat, q), exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(sortedStrings(classic), ";") != strings.Join(sortedStrings(resP.Rows), ";") {
		t.Errorf("classic and POP results differ: %d vs %d rows", len(classic), len(resP.Rows))
	}
	if resP.Steps < 2 {
		t.Errorf("3-way join should take 2 progressive steps, got %d", resP.Steps)
	}
	if len(resP.Checks) == 0 {
		t.Error("checks should be recorded")
	}
}

func TestProgressiveWithAggregation(t *testing.T) {
	cat := correlatedDB(t, 3000, 60)
	q := `SELECT dim.cat, COUNT(*) FROM fact, dim
		WHERE fact.dim = dim.id GROUP BY dim.cat ORDER BY dim.cat`
	bq := bindSelect(t, cat, q)
	p := &Progressive{Opt: opt.New(cat), Policy: Eager}
	res, err := p.Execute(bq, exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("groups = %d, want 7", len(res.Rows))
	}
	total := int64(0)
	for _, r := range res.Rows {
		total += r[1].I
	}
	if total != 3000 {
		t.Errorf("total count = %d, want 3000", total)
	}
}

func TestCheckedReoptsOnlyOnViolation(t *testing.T) {
	cat := correlatedDB(t, 3000, 60)
	// Correlated predicate pair a=10 AND b=30 is massively underestimated
	// under independence; the intermediate comes out ~50x larger than
	// estimated, which should trip the check on a 3-way join.
	cats, _ := cat.CreateTable("cats", types.Schema{
		{Name: "cat", Kind: types.KindInt},
		{Name: "label", Kind: types.KindString},
	})
	for i := 0; i < 7; i++ {
		cat.Insert(nil, cats, types.Row{types.Int(int64(i)), types.Str("x")})
	}
	cat.AnalyzeTable(cats, 4)
	q := `SELECT fact.fid FROM fact, dim, cats
		WHERE fact.dim = dim.id AND dim.cat = cats.cat AND fact.a = 10 AND fact.b = 30`
	bq := bindSelect(t, cat, q)
	p := &Progressive{Opt: opt.New(cat), Policy: Checked}
	res, err := p.Execute(bq, exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	// Whether a reopt triggers depends on whether the error crosses a plan
	// boundary; the invariant under test is bookkeeping consistency.
	if res.Reopts > res.Steps {
		t.Errorf("reopts %d > steps %d", res.Reopts, res.Steps)
	}
	for _, c := range res.Checks {
		if c.Actual < 0 || c.Estimated < 0 {
			t.Error("check record malformed")
		}
	}
}

func TestLEOFeedbackLoopConverges(t *testing.T) {
	cat := correlatedDB(t, 5000, 50)
	o := opt.New(cat)
	q := "SELECT fid FROM fact WHERE a = 10 AND b = 30"

	estimates := make([]float64, 3)
	for round := 0; round < 3; round++ {
		bq := bindSelect(t, cat, q)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		var scanEst float64
		plan.Walk(root, func(n plan.Node) {
			if _, ok := n.(*plan.ScanNode); ok {
				scanEst = n.Props().EstRows
			}
		})
		estimates[round] = scanEst
		ctx := exec.NewContext()
		AttachLEO(ctx, o.Cards)
		if _, err := exec.Run(root, ctx); err != nil {
			t.Fatal(err)
		}
	}
	actual := 100.0 // a=10 occurs 100 times in 5000 (i%50), b fully correlated
	err0 := estimates[0] / actual
	err2 := estimates[2] / actual
	if err0 > 0.5 {
		t.Fatalf("first estimate should underestimate badly: %v vs %v", estimates[0], actual)
	}
	if err2 < 0.5 || err2 > 2 {
		t.Errorf("LEO should converge estimate to actual: rounds %v (actual %v)", estimates, actual)
	}
}

func TestRioChoosesRobustOrMinimaxPlan(t *testing.T) {
	cat := correlatedDB(t, 4000, 80)
	bq := bindSelect(t, cat, "SELECT fact.fid FROM fact, dim WHERE fact.dim = dim.id AND fact.a = 5")
	r := &Rio{Opt: opt.New(cat)}
	root, choice, err := r.Choose(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil || choice.Sig == "" {
		t.Fatal("rio returned no plan")
	}
	rows, err := exec.Run(root, exec.NewContext())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 80 { // a=5: 4000/50 = 80 fact rows, FK join preserves
		t.Errorf("rio plan returned %d rows, want 80", len(rows))
	}
	if !choice.Robust && choice.MaxRegret < 1 {
		t.Errorf("non-robust choice must report regret >= 1: %v", choice.MaxRegret)
	}
}

func TestEddyBeatsBadStaticOrder(t *testing.T) {
	// Filters: f0 passes almost everything, f1 drops almost everything.
	// Static order [f0, f1] evaluates ~2n predicates; the eddy should
	// converge to testing f1 first (~1·n evaluations plus the survivors).
	n := 20000
	rows := make([]types.Row, n)
	rng := rand.New(rand.NewSource(42))
	for i := range rows {
		rows[i] = types.Row{types.Int(rng.Int63n(1000)), types.Int(rng.Int63n(1000))}
	}
	f0 := &expr.Bin{Op: expr.OpGE, L: &expr.Col{Index: 0, Typ: types.KindInt}, R: &expr.Const{V: types.Int(10)}} // ~99% pass
	f1 := &expr.Bin{Op: expr.OpLT, L: &expr.Col{Index: 1, Typ: types.KindInt}, R: &expr.Const{V: types.Int(10)}} // ~1% pass
	filters := []expr.Expr{f0, f1}

	ctxStatic := exec.NewContext()
	keptS, statsS, err := StaticFilter(filters, rows, ctxStatic)
	if err != nil {
		t.Fatal(err)
	}
	ctxEddy := exec.NewContext()
	eddy := &Eddy{Filters: filters, Window: 128, Seed: 7}
	keptE, statsE, err := eddy.Run(rows, ctxEddy)
	if err != nil {
		t.Fatal(err)
	}
	if len(keptS) != len(keptE) {
		t.Fatalf("eddy changed results: %d vs %d", len(keptE), len(keptS))
	}
	if float64(statsE.Evaluations) > float64(statsS.Evaluations)*0.7 {
		t.Errorf("eddy should save evaluations: eddy=%d static=%d", statsE.Evaluations, statsS.Evaluations)
	}
}

func TestEddyTracksDrift(t *testing.T) {
	// First half: f0 selective. Second half: f1 selective. A static order
	// is wrong for one half whichever way; the eddy adapts mid-stream.
	n := 30000
	rows := make([]types.Row, n)
	for i := range rows {
		var a, b int64
		if i < n/2 {
			a, b = int64(i%1000), 5 // f0 (col0 < 10) drops most, f1 passes
		} else {
			a, b = 5, int64(i%1000) // f0 passes, f1 (col1 < 10) drops most
		}
		rows[i] = types.Row{types.Int(a), types.Int(b)}
	}
	f0 := &expr.Bin{Op: expr.OpLT, L: &expr.Col{Index: 0, Typ: types.KindInt}, R: &expr.Const{V: types.Int(10)}}
	f1 := &expr.Bin{Op: expr.OpLT, L: &expr.Col{Index: 1, Typ: types.KindInt}, R: &expr.Const{V: types.Int(10)}}
	filters := []expr.Expr{f1, f0} // static starts with the wrong one for half 1

	ctxStatic := exec.NewContext()
	_, statsS, _ := StaticFilter(filters, rows, ctxStatic)
	ctxEddy := exec.NewContext()
	eddy := &Eddy{Filters: filters, Window: 256, Seed: 3}
	_, statsE, err := eddy.Run(rows, ctxEddy)
	if err != nil {
		t.Fatal(err)
	}
	if statsE.Reorders == 0 {
		t.Error("eddy should reorder on drift")
	}
	if statsE.Evaluations >= statsS.Evaluations {
		t.Errorf("adaptive routing should not lose to a misordered static plan: eddy=%d static=%d",
			statsE.Evaluations, statsS.Evaluations)
	}
}

func TestLotteryEddyCorrect(t *testing.T) {
	rows := make([]types.Row, 5000)
	rng := rand.New(rand.NewSource(11))
	for i := range rows {
		rows[i] = types.Row{types.Int(rng.Int63n(100)), types.Int(rng.Int63n(100))}
	}
	f0 := &expr.Bin{Op: expr.OpLT, L: &expr.Col{Index: 0, Typ: types.KindInt}, R: &expr.Const{V: types.Int(50)}}
	f1 := &expr.Bin{Op: expr.OpGE, L: &expr.Col{Index: 1, Typ: types.KindInt}, R: &expr.Const{V: types.Int(20)}}
	filters := []expr.Expr{f0, f1}
	ctx1 := exec.NewContext()
	want, _, _ := StaticFilter(filters, rows, ctx1)
	ctx2 := exec.NewContext()
	eddy := &Eddy{Filters: filters, Lottery: true, Window: 64, Seed: 9}
	got, _, err := eddy.Run(rows, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lottery eddy changed results: %d vs %d", len(got), len(want))
	}
}

// fullWidth reports whether n emits every column of what it reads.
func fullWidth(n plan.Node) bool {
	switch v := n.(type) {
	case *plan.ScanNode:
		return v.Cols == nil
	case *plan.IndexScanNode:
		return v.Cols == nil
	case *plan.JoinNode:
		return v.Cols == nil
	case *plan.IndexJoinNode:
		return v.Cols == nil
	}
	return true
}

// TestReplannedCoresKeepEveryColumn: POP and Rio plan join cores over
// materialized intermediates with no query block in sight and address their
// outputs as left‖right (OptimizeJoinGraph, EnumerateCorePlans, FinishPlan),
// so no node they plan or run may project: Cols is nil on every one.
func TestReplannedCoresKeepEveryColumn(t *testing.T) {
	cat := correlatedDB(t, 2000, 40)
	const q = `SELECT fact.fid FROM fact, dim WHERE fact.dim = dim.id AND fact.a = 3`
	for _, policy := range []ReoptPolicy{Checked, Eager} {
		ctx := exec.NewContext()
		nodes := 0
		ctx.OnActual = func(n plan.Node, _ float64) {
			nodes++
			if !fullWidth(n) {
				t.Errorf("policy %v ran %s projecting to %v", policy, n.Label(), n.Schema())
			}
		}
		p := &Progressive{Opt: opt.New(cat), Policy: policy}
		if _, err := p.Execute(bindSelect(t, cat, q), ctx); err != nil {
			t.Fatal(err)
		}
		if nodes < 3 {
			t.Errorf("policy %v: only %d nodes reported", policy, nodes)
		}
	}
	r := &Rio{Opt: opt.New(cat)}
	root, _, err := r.Choose(bindSelect(t, cat, q), nil)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(root, func(n plan.Node) {
		if !fullWidth(n) {
			t.Errorf("rio planned %s projecting to %v", n.Label(), n.Schema())
		}
	})
	// The same statement through Optimize sheds fact.a and both join keys.
	narrow, err := opt.New(cat).Optimize(bindSelect(t, cat, q), nil)
	if err != nil {
		t.Fatal(err)
	}
	projecting := 0
	plan.Walk(narrow, func(n plan.Node) {
		if !fullWidth(n) {
			projecting++
		}
	})
	if projecting < 3 {
		t.Errorf("Optimize narrowed %d nodes, want both scans and the join:\n%s", projecting, plan.Explain(narrow))
	}
}
