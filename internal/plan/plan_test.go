package plan

import (
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	_, err := cat.CreateTable("a", types.Schema{
		{Name: "x", Kind: types.KindInt},
		{Name: "y", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cat.CreateTable("b", types.Schema{
		{Name: "x", Kind: types.KindInt},
		{Name: "z", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustBind(t *testing.T, cat *catalog.Catalog, q string) *Query {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("bind %q: %v", q, err)
	}
	return bq
}

func TestBindSimple(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT x, y FROM a WHERE x > 3")
	if len(q.Rels) != 1 || q.Rels[0].Alias != "a" {
		t.Fatalf("rels wrong: %+v", q.Rels)
	}
	if len(q.Conjuncts) != 1 {
		t.Fatalf("conjuncts = %d", len(q.Conjuncts))
	}
	if len(q.Projections) != 2 || q.ProjNames[0] != "x" {
		t.Errorf("projections wrong: %v", q.ProjNames)
	}
	if q.Grouped {
		t.Error("should not be grouped")
	}
}

func TestBindAliasesAndQualified(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT t1.x, t2.z FROM a t1, b t2 WHERE t1.x = t2.x")
	if q.Rels[0].Alias != "t1" || q.Rels[1].Alias != "t2" {
		t.Errorf("aliases wrong: %+v", q.Rels)
	}
	if q.Combined[0].Table != "t1" || q.Combined[2].Table != "t2" {
		t.Errorf("combined schema not requalified: %v", q.Combined)
	}
	// Conjunct references absolute columns 0 and 2.
	used := expr.ColumnsUsed(q.Conjuncts[0])
	if !used[0] || !used[2] {
		t.Errorf("join conjunct columns wrong: %v", used)
	}
}

func TestBindWhereSplitsConjuncts(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT x FROM a WHERE x > 1 AND x < 10 AND y = 'q'")
	if len(q.Conjuncts) != 3 {
		t.Errorf("conjuncts = %d, want 3", len(q.Conjuncts))
	}
}

func TestBindBetweenNormalizes(t *testing.T) {
	cat := testCatalog(t)
	q1 := mustBind(t, cat, "SELECT x FROM a WHERE x BETWEEN 2 AND 5")
	q2 := mustBind(t, cat, "SELECT x FROM a WHERE x >= 2 AND x <= 5")
	if len(q1.Conjuncts) != len(q2.Conjuncts) {
		t.Fatalf("BETWEEN should split like comparisons: %d vs %d",
			len(q1.Conjuncts), len(q2.Conjuncts))
	}
	for i := range q1.Conjuncts {
		if expr.EquivalentForm(q1.Conjuncts[i]) != expr.EquivalentForm(q2.Conjuncts[i]) {
			t.Errorf("conjunct %d differs: %s vs %s", i, q1.Conjuncts[i], q2.Conjuncts[i])
		}
	}
}

func TestBindGrouped(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, `SELECT y, COUNT(*), SUM(x) AS s FROM a
		GROUP BY y HAVING COUNT(*) > 1 ORDER BY s DESC`)
	if !q.Grouped || len(q.GroupBy) != 1 || len(q.Aggs) != 2 {
		t.Fatalf("grouping wrong: grouped=%v groups=%d aggs=%d", q.Grouped, len(q.GroupBy), len(q.Aggs))
	}
	if q.Having == nil {
		t.Error("having missing")
	}
	if len(q.OrderBy) != 1 || q.OrderBy[0].Col != 2 || !q.OrderBy[0].Desc {
		t.Errorf("order by alias wrong: %+v", q.OrderBy)
	}
	// HAVING's COUNT(*) must reuse the projection's agg slot, not add one.
	if len(q.Aggs) != 2 {
		t.Errorf("HAVING should reuse agg slots: %d", len(q.Aggs))
	}
}

func TestBindGroupedExprArithmetic(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT SUM(x) / COUNT(*) FROM a")
	if !q.Grouped || len(q.Aggs) != 2 || len(q.GroupBy) != 0 {
		t.Fatalf("global agg arithmetic wrong: %+v", q.Aggs)
	}
}

func TestBindLeftJoin(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT a.x FROM a LEFT JOIN b ON a.x = b.x WHERE a.x > 0")
	if len(q.Rels) != 1 || len(q.LeftJoins) != 1 {
		t.Fatalf("left join structure wrong: %d inner, %d left", len(q.Rels), len(q.LeftJoins))
	}
	if q.LeftJoins[0].Rel.Offset != 2 {
		t.Errorf("left join offset = %d, want 2", q.LeftJoins[0].Rel.Offset)
	}
}

func TestBindOrderByPosition(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT x, y FROM a ORDER BY 2")
	if q.OrderBy[0].Col != 1 {
		t.Errorf("positional order by wrong: %+v", q.OrderBy)
	}
	if _, err := tryBind(cat, "SELECT x FROM a ORDER BY 5"); err == nil {
		t.Error("out-of-range position should fail")
	}
}

func tryBind(cat *catalog.Catalog, q string) (*Query, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	return Bind(st.(*sql.SelectStmt), cat)
}

func TestBindErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT nope FROM a",
		"SELECT x FROM nope",
		"SELECT x FROM a, b",          // ambiguous x
		"SELECT a.x FROM a, a",        // duplicate relation
		"SELECT y, COUNT(*) FROM a",   // y not grouped
		"SELECT * FROM a GROUP BY y",  // * in grouped query
		"SELECT COUNT(x, y) FROM a",   // bad agg arity is a parse error path
		"SELECT x FROM a ORDER BY zz", // unknown order key
	}
	for _, q := range bad {
		if _, err := tryBind(cat, q); err == nil {
			t.Errorf("%q should fail to bind", q)
		}
	}
}

func TestBindParamsCounted(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT x FROM a WHERE x > ? AND x < ?")
	if q.NumParams != 2 {
		t.Errorf("NumParams = %d", q.NumParams)
	}
}

func TestRelIndexForColumn(t *testing.T) {
	cat := testCatalog(t)
	q := mustBind(t, cat, "SELECT 1 FROM a, b WHERE a.x = b.x")
	if q.RelIndexForColumn(0) != 0 || q.RelIndexForColumn(1) != 0 {
		t.Error("columns 0-1 belong to rel 0")
	}
	if q.RelIndexForColumn(2) != 1 || q.RelIndexForColumn(3) != 1 {
		t.Error("columns 2-3 belong to rel 1")
	}
	if q.RelIndexForColumn(99) != -1 {
		t.Error("out of range should be -1")
	}
}

func TestExplainAndSignature(t *testing.T) {
	scan := &ScanNode{}
	scan.Out = types.Schema{{Name: "x", Kind: types.KindInt}}
	scan.Title = "SeqScan(t)"
	scan.Prop = Props{EstRows: 10, EstCost: 5}
	filter := &FilterNode{}
	filter.Kids = []Node{scan}
	filter.Out = scan.Out
	filter.Title = "Filter"
	filter.Prop = Props{EstRows: 3, EstCost: 6}

	text := Explain(filter)
	if !strings.Contains(text, "Filter") || !strings.Contains(text, "  SeqScan(t)") {
		t.Errorf("explain wrong:\n%s", text)
	}
	sig := PlanSignature(filter)
	if sig != "Filter[SeqScan(t)]" {
		t.Errorf("signature = %q", sig)
	}
	// actual rendering
	scan.Prop.SetActualRows(8)
	at := ExplainActual(filter)
	if !strings.Contains(at, "actual=8") {
		t.Errorf("actuals missing:\n%s", at)
	}
	n := 0
	Walk(filter, func(Node) { n++ })
	if n != 2 {
		t.Errorf("walk visited %d", n)
	}
}

func TestBindExprStandalone(t *testing.T) {
	schema := types.Schema{{Name: "v", Kind: types.KindInt}}
	st, err := sql.Parse("SELECT 1 FROM d WHERE v * 2 + 1 > 5")
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*sql.SelectStmt).Where
	e, err := BindExpr(w, schema)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := expr.EvalPredicate(e, types.Row{types.Int(3)}, nil)
	if err != nil || !ok {
		t.Errorf("3*2+1 > 5 should hold: %v %v", ok, err)
	}
	ok, _ = expr.EvalPredicate(e, types.Row{types.Int(1)}, nil)
	if ok {
		t.Error("1*2+1 > 5 should not hold")
	}
}

func TestJoinAlgAndTypeStrings(t *testing.T) {
	names := map[JoinAlg]string{
		JoinHash: "HashJoin", JoinMerge: "MergeJoin", JoinNL: "NestedLoopJoin",
		JoinIndexNL: "IndexNLJoin", JoinGeneral: "GJoin",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d = %q, want %q", alg, alg.String(), want)
		}
	}
}

// TestPushDown: each comparison of a column with a bound, non-NULL constant is
// pushed with its operator (either orientation), a comparison with NULL
// makes the scan empty, and everything else — another shape, an unbound
// parameter, a column past the table's — stays residual.
func TestPushDown(t *testing.T) {
	col := func(i int) expr.Expr { return &expr.Col{Index: i, Typ: types.KindInt} }
	lit := func(v int64) expr.Expr { return &expr.Const{V: types.Int(v)} }
	var cjs []expr.Expr
	for op := expr.OpEQ; op <= expr.OpGE; op++ {
		cjs = append(cjs, &expr.Bin{Op: op, L: col(1), R: lit(int64(op))})
	}
	flipped := &expr.Bin{Op: expr.OpLT, L: lit(7), R: col(0)} // 7 < c0: c0 > 7
	param := &expr.Bin{Op: expr.OpGE, L: col(0), R: &expr.Param{Index: 0}}
	unbound := &expr.Bin{Op: expr.OpGE, L: col(0), R: &expr.Param{Index: 1}}
	wide := &expr.Bin{Op: expr.OpEQ, L: col(5), R: lit(1)}
	or := &expr.Bin{Op: expr.OpOr, L: cjs[0], R: cjs[1]}
	cjs = append(cjs, flipped, param, unbound, wide, or)

	pushed, residual, never := PushDown(cjs, []types.Value{types.Int(3)}, 2, nil, nil)
	want := []storage.CmpOp{storage.CmpEQ, storage.CmpNE, storage.CmpLT, storage.CmpLE, storage.CmpGT, storage.CmpGE, storage.CmpGT, storage.CmpGE}
	if len(pushed) != len(want) || never {
		t.Fatalf("pushed %d conjuncts (never=%v), want %d", len(pushed), never, len(want))
	}
	for i, p := range pushed {
		if p.Op != want[i] || p.Expr != cjs[i] {
			t.Errorf("conjunct %d pushed as %v, want %v", i, p.Op, want[i])
		}
	}
	if p := pushed[6]; p.Col != 0 || p.V.I != 7 {
		t.Errorf("7 < c0 pushed as c%d ⋈ %v", p.Col, p.V)
	}
	if p := pushed[7]; p.V.I != 3 {
		t.Errorf("c0 >= ? pushed against %v, want the bound 3", p.V)
	}
	if len(residual) != 3 || residual[0] != unbound || residual[1] != wide || residual[2] != or {
		t.Errorf("residual %v", residual)
	}
	null := &expr.Bin{Op: expr.OpLT, L: col(0), R: &expr.Const{V: types.Null()}}
	if pushed, residual, never := PushDown([]expr.Expr{cjs[0], null}, nil, 2, nil, nil); !never || len(pushed) != 1 || len(residual) != 0 {
		t.Errorf("c0 < NULL: never=%v, %d pushed, %d residual", never, len(pushed), len(residual))
	}
}
