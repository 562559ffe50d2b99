package core

import (
	"strings"
	"testing"

	"rqp/internal/index"
	"rqp/internal/opt"
	"rqp/internal/types"
	"rqp/internal/workload"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open(DefaultConfig())
	e.MustExec("CREATE TABLE emp (id int, dept int, salary float, name varchar, hired date)")
	for i := 0; i < 300; i++ {
		e.MustExec("INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
			types.Int(int64(i)), types.Int(int64(i%10)),
			types.Float(float64(30000+i*100)), types.Str("emp"),
			types.Date(int64(7000+i)))
	}
	e.MustExec("ANALYZE emp")
	return e
}

func TestEngineDDLDMLQuery(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("SELECT COUNT(*) FROM emp WHERE dept = 3")
	if r.Rows[0][0].I != 30 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	if r.Cost <= 0 {
		t.Error("cost should be positive")
	}
	if len(r.Columns) != 1 {
		t.Errorf("columns = %v", r.Columns)
	}
}

func TestEngineInsertWithColumns(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("INSERT INTO emp (id, dept) VALUES (1000, 99)")
	if r.Affected != 1 {
		t.Errorf("affected = %d", r.Affected)
	}
	q := e.MustExec("SELECT salary, name FROM emp WHERE id = 1000")
	if len(q.Rows) != 1 || !q.Rows[0][0].IsNull() || !q.Rows[0][1].IsNull() {
		t.Errorf("unspecified columns should be NULL: %v", q.Rows)
	}
}

func TestEngineUpdateDelete(t *testing.T) {
	e := newEngine(t)
	r := e.MustExec("UPDATE emp SET salary = salary * 2 WHERE dept = 0")
	if r.Affected != 30 {
		t.Errorf("update affected = %d", r.Affected)
	}
	q := e.MustExec("SELECT MIN(salary) FROM emp WHERE dept = 0")
	if q.Rows[0][0].AsFloat() != 60000 {
		t.Errorf("min salary = %v", q.Rows[0][0])
	}
	r2 := e.MustExec("DELETE FROM emp WHERE dept = 0")
	if r2.Affected != 30 {
		t.Errorf("delete affected = %d", r2.Affected)
	}
	q2 := e.MustExec("SELECT COUNT(*) FROM emp")
	if q2.Rows[0][0].I != 270 {
		t.Errorf("count after delete = %v", q2.Rows[0][0])
	}
}

func TestEngineExplain(t *testing.T) {
	e := newEngine(t)
	p, err := e.Explain("SELECT id FROM emp WHERE dept = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "SeqScan") || !strings.Contains(p, "Project") {
		t.Errorf("explain missing operators:\n%s", p)
	}
	r := e.MustExec("EXPLAIN SELECT id FROM emp WHERE dept = 1")
	if r.Plan == "" || len(r.Rows) != 0 {
		t.Error("EXPLAIN should return a plan and no rows")
	}
}

func TestEngineCreateIndexAndUse(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE INDEX emp_id ON emp (id)")
	e.MustExec("ANALYZE emp")
	r := e.MustExec("SELECT dept FROM emp WHERE id = 42")
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Errorf("index query wrong: %v", r.Rows)
	}
	e.MustExec("DROP INDEX emp_id ON emp")
}

func TestEnginePoliciesAgree(t *testing.T) {
	query := "SELECT dept, COUNT(*) FROM emp WHERE salary >= 40000 GROUP BY dept ORDER BY dept"
	var ref string
	for _, pol := range []ExecPolicy{PolicyClassic, PolicyPOP, PolicyPOPEager, PolicyRio} {
		cfg := DefaultConfig()
		cfg.Policy = pol
		e := Open(cfg)
		e.MustExec("CREATE TABLE emp (id int, dept int, salary float, name varchar, hired date)")
		for i := 0; i < 300; i++ {
			e.MustExec("INSERT INTO emp VALUES (?, ?, ?, ?, ?)",
				types.Int(int64(i)), types.Int(int64(i%10)),
				types.Float(float64(30000+i*100)), types.Str("emp"), types.Date(int64(7000+i)))
		}
		e.MustExec("ANALYZE emp")
		r := e.MustExec(query)
		var sb strings.Builder
		for _, row := range r.Rows {
			sb.WriteString(row.String())
		}
		if ref == "" {
			ref = sb.String()
			continue
		}
		if sb.String() != ref {
			t.Errorf("policy %v results differ", pol)
		}
	}
}

func TestExplainDoesNotExecuteUnderAnyPolicy(t *testing.T) {
	star, err := workload.BuildStar(workload.DefaultStar())
	if err != nil {
		t.Fatal(err)
	}
	starQueries := workload.StarWorkload(workload.DefaultStar(), 20, 0.5, 42)
	for _, pol := range []ExecPolicy{PolicyClassic, PolicyPOP, PolicyPOPEager, PolicyRio} {
		cfg := DefaultConfig()
		cfg.Policy = pol
		e := Open(cfg)
		e.MustExec("CREATE TABLE t (a int, b int)")
		for i := 0; i < 50; i++ {
			e.MustExec("INSERT INTO t VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i%5)))
		}
		e.MustExec("ANALYZE t")
		r := e.MustExec("EXPLAIN SELECT b, COUNT(*) FROM t WHERE a > 10 GROUP BY b")
		if r.Plan == "" {
			t.Errorf("policy %v: EXPLAIN returned no plan", pol)
		}
		if len(r.Rows) != 0 {
			t.Errorf("policy %v: EXPLAIN returned rows (executed the query)", pol)
		}
		if !strings.Contains(r.Plan, "SeqScan") {
			t.Errorf("policy %v: plan missing scan:\n%s", pol, r.Plan)
		}

		// Explaining any other statement is an error and runs nothing.
		e.MustExec("INSERT INTO t VALUES (100, 1)") // a modification ANALYZE would reset
		tb, _ := e.Cat.Table("t")
		rows, mods := tb.Stats.RowCount, tb.ModCount()
		for _, q := range []string{
			"EXPLAIN DELETE FROM t WHERE b = 1",
			"EXPLAIN INSERT INTO t VALUES (1, 2)",
			"EXPLAIN CREATE TABLE u (x int)",
			"EXPLAIN ANALYZE t",
		} {
			if _, err := e.Exec(q); err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT only") {
				t.Errorf("policy %v: %q: err = %v, want EXPLAIN supports SELECT only", pol, q, err)
			}
		}
		if n := e.MustExec("SELECT COUNT(*) FROM t").Rows[0][0].I; n != 51 {
			t.Errorf("policy %v: EXPLAIN of DML changed the rows: %d, want 51", pol, n)
		}
		if _, ok := e.Cat.Table("u"); ok {
			t.Errorf("policy %v: EXPLAIN CREATE TABLE created the table", pol)
		}
		if tb.Stats.RowCount != rows || tb.ModCount() != mods {
			t.Errorf("policy %v: EXPLAIN ANALYZE t analyzed the table", pol)
		}

		// Engine.Explain plans an IN (SELECT …) as the statement does.
		sub := "SELECT a FROM t WHERE b IN (SELECT b FROM t WHERE a < 3)"
		p, err := e.Explain(sub)
		if err != nil {
			t.Fatalf("policy %v: Explain(%q): %v", pol, sub, err)
		}
		if want := e.MustExec("EXPLAIN " + sub).Plan; p != want {
			t.Errorf("policy %v: Explain(%q) =\n%s\nEXPLAIN prints\n%s", pol, sub, p, want)
		}

		// Engine.Explain is what EXPLAIN prints — Rio's robust choice
		// included — on the star workload.
		se := Attach(star, cfg)
		for i, q := range starQueries {
			p, err := se.Explain(q.SQL)
			if err != nil {
				t.Fatalf("policy %v: star query %d: %v", pol, i, err)
			}
			if want := se.MustExec("EXPLAIN " + q.SQL).Plan; p != want {
				t.Errorf("policy %v: star query %d: Explain =\n%s\nEXPLAIN prints\n%s", pol, i, p, want)
			}
		}
	}
}

func TestEngineRobustModes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = opt.Percentile
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int)")
	e.MustExec("INSERT INTO t VALUES (1), (2), (3)")
	e.MustExec("ANALYZE t")
	r := e.MustExec("SELECT COUNT(*) FROM t WHERE a >= 2")
	if r.Rows[0][0].I != 2 {
		t.Errorf("robust mode broke correctness: %v", r.Rows)
	}
}

// TestAttachHandsOverOptions: the optimizer plans under the Config's options
// as written — every field, not the few Attach once copied.
func TestAttachHandsOverOptions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode, cfg.PercentileP = opt.Percentile, 0.75
	cfg.IndexPaths, cfg.BushyJoins, cfg.MemBudgetRows = opt.IndexNever, true, 512
	if got := Open(cfg).Opt.Opt; got != cfg.Options {
		t.Errorf("Attach planned under %+v, want %+v", got, cfg.Options)
	}
}

func TestEngineErrors(t *testing.T) {
	e := Open(DefaultConfig())
	for _, q := range []string{
		"SELECT * FROM missing",
		"INSERT INTO missing VALUES (1)",
		"CREATE TABLE bad (x blob)",
		"ANALYZE missing",
		"DELETE FROM missing",
		"UPDATE missing SET x = 1",
		"SELECT syntax error",
	} {
		if _, err := e.Exec(q); err == nil {
			t.Errorf("%q should fail", q)
		}
	}
	e.MustExec("CREATE TABLE t (a int)")
	if _, err := e.Exec("CREATE TABLE t (a int)"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := e.Exec("INSERT INTO t (a, b) VALUES (1, 2)"); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestDropTable(t *testing.T) {
	e := newEngine(t)
	e.MustExec("DROP TABLE emp")
	if _, err := e.Exec("SELECT COUNT(*) FROM emp"); err == nil {
		t.Error("dropped table should be gone")
	}
	if _, err := e.Exec("DROP TABLE emp"); err == nil {
		t.Error("double drop should fail")
	}
	// The name is reusable.
	e.MustExec("CREATE TABLE emp (x int)")
	e.MustExec("INSERT INTO emp VALUES (1)")
	if n := e.MustExec("SELECT COUNT(*) FROM emp").Rows[0][0].I; n != 1 {
		t.Errorf("recreated table count = %d", n)
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	e := newEngine(t)
	e.MustExec("CREATE INDEX emp_dept ON emp (dept)")
	// Move every dept-3 employee to dept 77; index lookups must follow.
	r := e.MustExec("UPDATE emp SET dept = 77 WHERE dept = 3")
	if r.Affected != 30 {
		t.Fatalf("affected = %d", r.Affected)
	}
	e.MustExec("ANALYZE emp")
	if n := e.MustExec("SELECT COUNT(*) FROM emp WHERE dept = 77").Rows[0][0].I; n != 30 {
		t.Errorf("dept=77 count = %d", n)
	}
	if n := e.MustExec("SELECT COUNT(*) FROM emp WHERE dept = 3").Rows[0][0].I; n != 0 {
		t.Errorf("dept=3 count = %d, index kept stale entries", n)
	}
	// Verify through the index directly: force the index path.
	tb, _ := e.Cat.Table("emp")
	ix := tb.IndexNamed("emp_dept")
	cnt := 0
	ix.Tree.Lookup(nil, []types.Value{types.Int(3)}, func(ixe index.Entry) bool { cnt++; return true })
	if cnt != 0 {
		t.Errorf("index still holds %d stale dept=3 entries", cnt)
	}
}

func TestAutoAnalyze(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoAnalyze = true
	e := Open(cfg)
	e.MustExec("CREATE TABLE aa (v int)")
	for i := 0; i < 200; i++ {
		e.MustExec("INSERT INTO aa VALUES (?)", types.Int(int64(i)))
	}
	e.MustExec("ANALYZE aa")
	tb, _ := e.Cat.Table("aa")
	if tb.ModCount() != 0 {
		t.Fatalf("ANALYZE should reset mod count: %d", tb.ModCount())
	}
	// Below threshold: no refresh.
	for i := 0; i < 10; i++ {
		e.MustExec("INSERT INTO aa VALUES (999)")
	}
	e.MustExec("SELECT COUNT(*) FROM aa")
	if tb.ModCount() != 10 {
		t.Errorf("below threshold should not refresh: mods=%d", tb.ModCount())
	}
	// Above threshold: next SELECT refreshes.
	for i := 0; i < 50; i++ {
		e.MustExec("INSERT INTO aa VALUES (999)")
	}
	e.MustExec("SELECT COUNT(*) FROM aa")
	if tb.ModCount() != 0 {
		t.Errorf("auto-analyze should have fired: mods=%d", tb.ModCount())
	}
	if tb.Stats.RowCount != 260 {
		t.Errorf("refreshed stats row count = %v", tb.Stats.RowCount)
	}
}

func TestEngineLEOConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LEO = true
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int, b int)")
	for i := 0; i < 500; i++ {
		v := int64(i % 20)
		e.MustExec("INSERT INTO t VALUES (?, ?)", types.Int(v), types.Int(v*2))
	}
	e.MustExec("ANALYZE t")
	e.MustExec("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 10")
	if e.Opt.Cards.Len() == 0 {
		t.Error("LEO should have recorded feedback")
	}
}
