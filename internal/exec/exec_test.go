package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// testDB builds a small two-table database with known contents:
//
//	t(id, grp, val):  id 0..199, grp = id % 10, val = id * 2
//	u(id, tid, name): id 0..49,  tid = id * 4,  name = "n<id%5>"
func testDB(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tt, err := cat.CreateTable("t", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "val", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cat.Insert(nil, tt, types.Row{types.Int(int64(i)), types.Int(int64(i % 10)), types.Int(int64(i * 2))})
	}
	uu, err := cat.CreateTable("u", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "tid", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		cat.Insert(nil, uu, types.Row{types.Int(int64(i)), types.Int(int64(i * 4)), types.Str(fmt.Sprintf("n%d", i%5))})
	}
	cat.AnalyzeTable(tt, 16)
	cat.AnalyzeTable(uu, 16)
	return cat
}

// runSQL parses, binds, optimizes and executes a query.
func runSQL(t *testing.T, cat *catalog.Catalog, q string, params ...types.Value) []types.Row {
	t.Helper()
	rows, err := tryRunSQL(cat, q, params...)
	if err != nil {
		t.Fatalf("runSQL(%q): %v", q, err)
	}
	return rows
}

func tryRunSQL(cat *catalog.Catalog, q string, params ...types.Value) ([]types.Row, error) {
	st, err := sql.Parse(q)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a select: %T", st)
	}
	bq, err := plan.Bind(sel, cat)
	if err != nil {
		return nil, err
	}
	o := opt.New(cat)
	p, err := o.Optimize(bq, params)
	if err != nil {
		return nil, err
	}
	ctx := NewContext()
	ctx.Params = params
	return Run(p, ctx)
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func sortedRowStrings(rows []types.Row) []string {
	out := rowStrings(rows)
	sort.Strings(out)
	return out
}

func TestSelectFilter(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT id FROM t WHERE id < 5")
	if len(rows) != 5 {
		t.Fatalf("got %d rows: %v", len(rows), rowStrings(rows))
	}
	rows = runSQL(t, cat, "SELECT id FROM t WHERE grp = 3 AND id < 50")
	if len(rows) != 5 { // 3, 13, 23, 33, 43
		t.Fatalf("grp filter wrong: %v", rowStrings(rows))
	}
}

func TestSelectProjectionAndArith(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT id, val / 2, id + 100 FROM t WHERE id = 7")
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r[0].I != 7 || r[1].AsFloat() != 7 || r[2].I != 107 {
		t.Errorf("projection wrong: %v", r)
	}
}

func TestSelectStar(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT * FROM u WHERE id = 3")
	if len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("star wrong: %v", rowStrings(rows))
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT id FROM t WHERE id < 20 ORDER BY id DESC LIMIT 3 OFFSET 2")
	want := []int64{17, 16, 15}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, w := range want {
		if rows[i][0].I != w {
			t.Errorf("row %d = %v, want %d", i, rows[i], w)
		}
	}
}

func TestInnerJoin(t *testing.T) {
	cat := testDB(t)
	// u.tid = t.id joins 50 u-rows to t (tid 0..196 step 4, all < 200)
	rows := runSQL(t, cat, "SELECT u.id, t.id FROM u, t WHERE u.tid = t.id")
	if len(rows) != 50 {
		t.Fatalf("join rows = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].I != r[0].I*4 {
			t.Errorf("bad join pair %v", r)
		}
	}
	// explicit JOIN syntax must agree
	rows2 := runSQL(t, cat, "SELECT u.id, t.id FROM u JOIN t ON u.tid = t.id")
	if len(rows2) != 50 {
		t.Fatalf("explicit join rows = %d", len(rows2))
	}
}

func TestJoinWithFilterAndResidual(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, `SELECT u.id, t.val FROM u, t
		WHERE u.tid = t.id AND t.grp = 0 AND u.id < 10 AND u.id + t.grp < 100`)
	// t.grp = 0 means t.id % 10 == 0; u.tid = u.id*4, so need (u.id*4)%10==0
	// => u.id % 5 == 0, with u.id < 10: ids 0 and 5.
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rowStrings(rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	cat := testDB(t)
	// self-ish 3-way: u x t x t2 via val
	tt, _ := cat.Table("t")
	_ = tt
	rows := runSQL(t, cat, `SELECT a.id, b.id, u.id FROM t a, t b, u
		WHERE a.id = b.id AND b.id = u.tid AND u.id < 5`)
	if len(rows) != 5 {
		t.Fatalf("3-way join rows = %d: %v", len(rows), rowStrings(rows))
	}
}

func TestLeftJoin(t *testing.T) {
	cat := testDB(t)
	// Every t row with grp=7 (ids 7,17,...,197: 20 rows); u matches where
	// u.tid = t.id: tid multiples of 4 — id ≡ 7 mod 10 never multiple of 4... none match
	rows := runSQL(t, cat, `SELECT t.id, u.id FROM t LEFT JOIN u ON u.tid = t.id WHERE t.grp = 7`)
	if len(rows) != 20 {
		t.Fatalf("left join rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r[1].IsNull() {
			t.Errorf("expected null-extended row, got %v", r)
		}
	}
	// And matching case: grp = 0 rows with id%4==0 match (0,20,40,...,180 → ids divisible by 20 are multiples of 4: 0,20 no... id%10==0 and id%4==0 → id%20==0 → 10 rows)
	rows2 := runSQL(t, cat, `SELECT t.id, u.id FROM t LEFT JOIN u ON u.tid = t.id WHERE t.grp = 0`)
	if len(rows2) != 20 {
		t.Fatalf("left join rows2 = %d", len(rows2))
	}
	matched := 0
	for _, r := range rows2 {
		if !r[1].IsNull() {
			matched++
			if r[1].I*4 != r[0].I {
				t.Errorf("bad match %v", r)
			}
		}
	}
	if matched != 10 {
		t.Errorf("matched = %d, want 10", matched)
	}
}

func TestAggregation(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT grp, COUNT(*), SUM(val), MIN(id), MAX(id), AVG(id) FROM t GROUP BY grp ORDER BY grp")
	if len(rows) != 10 {
		t.Fatalf("groups = %d", len(rows))
	}
	// grp g: ids g, g+10, ..., g+190 (20 rows). SUM(val) = 2*(20g + 1900)
	for g := int64(0); g < 10; g++ {
		r := rows[g]
		if r[0].I != g || r[1].I != 20 {
			t.Fatalf("group %d wrong: %v", g, r)
		}
		wantSum := float64(2 * (20*g + 1900))
		if r[2].AsFloat() != wantSum {
			t.Errorf("group %d SUM=%v want %v", g, r[2], wantSum)
		}
		if r[3].I != g || r[4].I != g+190 {
			t.Errorf("group %d MIN/MAX wrong: %v", g, r)
		}
		wantAvg := float64(g + 95)
		if r[5].AsFloat() != wantAvg {
			t.Errorf("group %d AVG=%v want %v", g, r[5], wantAvg)
		}
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT COUNT(*), SUM(val) FROM t WHERE id < 0")
	if len(rows) != 1 {
		t.Fatalf("global agg rows = %d", len(rows))
	}
	if rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty agg wrong: %v", rows[0])
	}
}

func TestHaving(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT grp, COUNT(*) FROM t WHERE id < 55 GROUP BY grp HAVING COUNT(*) > 5 ORDER BY grp")
	// ids 0..54: grp 0..4 have 6 rows, 5..9 have 5.
	if len(rows) != 5 {
		t.Fatalf("having rows = %v", rowStrings(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) || r[1].I != 6 {
			t.Errorf("having row wrong: %v", r)
		}
	}
}

func TestAggArithmetic(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT SUM(val) / COUNT(*) FROM t WHERE grp = 1")
	if len(rows) != 1 {
		t.Fatal("expected one row")
	}
	// grp1: ids 1,11,...,191; vals 2,22,...,382; avg val = 192... sum=20*192=3840/20=192
	if rows[0][0].AsFloat() != 192 {
		t.Errorf("agg arithmetic = %v, want 192", rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT DISTINCT grp FROM t")
	if len(rows) != 10 {
		t.Fatalf("distinct rows = %d", len(rows))
	}
	rows2 := runSQL(t, cat, "SELECT DISTINCT name FROM u ORDER BY name")
	if len(rows2) != 5 || rows2[0][0].S != "n0" {
		t.Fatalf("distinct strings wrong: %v", rowStrings(rows2))
	}
}

func TestInBetweenLikeNullPredicates(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT id FROM t WHERE id IN (3, 5, 999)")
	if len(rows) != 2 {
		t.Fatalf("IN rows = %v", rowStrings(rows))
	}
	rows = runSQL(t, cat, "SELECT id FROM t WHERE id BETWEEN 10 AND 15")
	if len(rows) != 6 {
		t.Fatalf("BETWEEN rows = %d", len(rows))
	}
	rows = runSQL(t, cat, "SELECT id FROM u WHERE name LIKE 'n1%'")
	if len(rows) != 10 {
		t.Fatalf("LIKE rows = %d", len(rows))
	}
	rows = runSQL(t, cat, "SELECT id FROM t WHERE id IS NULL")
	if len(rows) != 0 {
		t.Fatalf("IS NULL rows = %d", len(rows))
	}
}

func TestParamsExecution(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT COUNT(*) FROM t WHERE id >= ? AND id <= ?",
		types.Int(10), types.Int(19))
	if rows[0][0].I != 10 {
		t.Errorf("param count = %v", rows[0][0])
	}
}

func TestEquivalentQueriesSameResult(t *testing.T) {
	cat := testDB(t)
	variants := []string{
		"SELECT id FROM t WHERE NOT (id <> 42)",
		"SELECT id FROM t WHERE id = 42",
		"SELECT id FROM t WHERE 42 = id",
		"SELECT id FROM t WHERE id BETWEEN 42 AND 42",
		"SELECT id FROM t WHERE id IN (42)",
		"SELECT id FROM t WHERE id >= 42 AND id <= 42",
	}
	for _, q := range variants {
		rows := runSQL(t, cat, q)
		if len(rows) != 1 || rows[0][0].I != 42 {
			t.Errorf("%q: got %v", q, rowStrings(rows))
		}
	}
}

// TestAllJoinAlgorithmsAgree forces each join algorithm and verifies
// identical results — the plan-repertoire correctness invariant.
func TestAllJoinAlgorithmsAgree(t *testing.T) {
	cat := testDB(t)
	query := "SELECT u.id, t.id, t.val FROM u, t WHERE u.tid = t.id AND t.grp < 8"
	st, _ := sql.Parse(query)
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	var reference []string
	configs := []struct {
		name string
		mod  func(*opt.Options)
	}{
		{"hash", func(o *opt.Options) { o.Joins = 1 << plan.JoinHash }},
		{"merge", func(o *opt.Options) { o.Joins = 1 << plan.JoinMerge }},
		{"nl", func(o *opt.Options) { o.Joins = 1 << plan.JoinNL }},
		{"gjoin", func(o *opt.Options) { o.Joins = 1 << plan.JoinGeneral }},
	}
	for _, cfg := range configs {
		o := opt.New(cat)
		cfg.mod(&o.Opt)
		p, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		ctx := NewContext()
		rows, err := Run(p, ctx)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		got := sortedRowStrings(rows)
		if reference == nil {
			reference = got
			continue
		}
		if strings.Join(got, ";") != strings.Join(reference, ";") {
			t.Errorf("%s: results differ from reference (%d vs %d rows)", cfg.name, len(got), len(reference))
		}
	}
	if len(reference) == 0 {
		t.Fatal("reference empty — join produced nothing")
	}
}

// TestIndexScanMatchesSeqScan verifies the index access path returns the
// same rows as a table scan.
func TestIndexScanMatchesSeqScan(t *testing.T) {
	cat := testDB(t)
	seq := sortedRowStrings(runSQL(t, cat, "SELECT id, val FROM t WHERE id >= 50 AND id < 60"))
	if _, err := cat.CreateIndex(nil, "t", "t_id", []string{"id"}, true); err != nil {
		t.Fatal(err)
	}
	tt, _ := cat.Table("t")
	cat.AnalyzeTable(tt, 16)
	idx := sortedRowStrings(runSQL(t, cat, "SELECT id, val FROM t WHERE id >= 50 AND id < 60"))
	if strings.Join(seq, ";") != strings.Join(idx, ";") {
		t.Errorf("index scan differs:\nseq: %v\nidx: %v", seq, idx)
	}
}

func TestIndexChosenForSelectivePredicate(t *testing.T) {
	// Needs a table big enough that random index probes beat a short scan.
	cat := catalog.New()
	tt, _ := cat.CreateTable("t", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "val", Kind: types.KindInt},
	})
	for i := 0; i < 5000; i++ {
		cat.Insert(nil, tt, types.Row{types.Int(int64(i)), types.Int(int64(i * 2))})
	}
	cat.CreateIndex(nil, "t", "t_id", []string{"id"}, true)
	cat.AnalyzeTable(tt, 16)
	st, _ := sql.Parse("SELECT val FROM t WHERE id = 7")
	bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
	o := opt.New(cat)
	p, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig := plan.PlanSignature(p)
	if !strings.Contains(sig, "IndexScan") {
		t.Errorf("selective equality should use index: %s", sig)
	}
	// Unselective predicate should prefer the seq scan.
	st2, _ := sql.Parse("SELECT val FROM t WHERE id >= 0")
	bq2, _ := plan.Bind(st2.(*sql.SelectStmt), cat)
	p2, _ := o.Optimize(bq2, nil)
	if strings.Contains(plan.PlanSignature(p2), "IndexScan") {
		t.Errorf("unselective predicate should not use index: %s", plan.PlanSignature(p2))
	}
}

func TestActualCardinalitiesRecorded(t *testing.T) {
	cat := testDB(t)
	st, _ := sql.Parse("SELECT id FROM t WHERE grp = 3")
	bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
	o := opt.New(cat)
	p, _ := o.Optimize(bq, nil)
	ctx := NewContext()
	if _, err := Run(p, ctx); err != nil {
		t.Fatal(err)
	}
	plan.Walk(p, func(n plan.Node) {
		if n.Props().ActualRows() < 0 {
			t.Errorf("node %s has no actual cardinality", n.Label())
		}
	})
}

func TestClockAdvancesDuringExecution(t *testing.T) {
	cat := testDB(t)
	st, _ := sql.Parse("SELECT COUNT(*) FROM t")
	bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
	o := opt.New(cat)
	p, _ := o.Optimize(bq, nil)
	ctx := NewContext()
	if _, err := Run(p, ctx); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock.Units() <= 0 {
		t.Error("execution should consume simulated cost")
	}
}

func TestMemoryPressureSpillsStillCorrect(t *testing.T) {
	cat := testDB(t)
	st, _ := sql.Parse("SELECT u.id, t.id FROM u, t WHERE u.tid = t.id ORDER BY t.id")
	bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
	o := opt.New(cat)
	o.Opt.MemBudgetRows = 8 // force spills in sort and hash join costing
	p, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext()
	ctx.Mem = NewMemBroker(8)
	rows, err := Run(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50 {
		t.Fatalf("spilled execution rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i][1].I < rows[i-1][1].I {
			t.Fatal("spilled sort not ordered")
		}
	}
}

func TestOrderByAlias(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT grp AS g, COUNT(*) AS c FROM t GROUP BY grp ORDER BY g DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].I != 9 || rows[1][0].I != 8 {
		t.Fatalf("order by alias wrong: %v", rowStrings(rows))
	}
}

func TestBindErrors(t *testing.T) {
	cat := testDB(t)
	bad := []string{
		"SELECT nosuch FROM t",
		"SELECT id FROM nosuch",
		"SELECT id FROM t, t",
		"SELECT id FROM t, u", // ambiguous id
		"SELECT id, COUNT(*) FROM t",
		"SELECT * FROM t GROUP BY grp",
		"SELECT grp FROM t GROUP BY grp ORDER BY nosuch",
	}
	for _, q := range bad {
		if _, err := tryRunSQL(cat, q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
}

func TestCrossProduct(t *testing.T) {
	cat := testDB(t)
	rows := runSQL(t, cat, "SELECT COUNT(*) FROM t, u WHERE t.id < 2 AND u.id < 3")
	if rows[0][0].I != 6 {
		t.Errorf("cross product count = %v, want 6", rows[0][0])
	}
}
