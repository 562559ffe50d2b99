package plan

import (
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/sql"
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
		t.Errorf("combined schema not requalified: %v", q.Combined.Names())
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
		JoinIndexNL: "IndexNLJoin", JoinSymHash: "SymHashJoin", JoinGeneral: "GJoin",
	}
	for alg, want := range names {
		if alg.String() != want {
			t.Errorf("%d = %q, want %q", alg, alg.String(), want)
		}
	}
}
