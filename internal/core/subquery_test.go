package core

import (
	"strings"
	"testing"

	"rqp/internal/types"
)

func subqueryEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open(DefaultConfig())
	e.MustExec("CREATE TABLE prod (id int, cat int, price float)")
	e.MustExec("CREATE TABLE hot (cat int)")
	for i := 0; i < 100; i++ {
		e.MustExec("INSERT INTO prod VALUES (?, ?, ?)",
			types.Int(int64(i)), types.Int(int64(i%10)), types.Float(float64(i)))
	}
	e.MustExec("INSERT INTO hot VALUES (2), (5), (7)")
	e.MustExec("ANALYZE prod")
	e.MustExec("ANALYZE hot")
	return e
}

func TestInSubquery(t *testing.T) {
	e := subqueryEngine(t)
	r := e.MustExec("SELECT COUNT(*) FROM prod WHERE cat IN (SELECT cat FROM hot)")
	if r.Rows[0][0].I != 30 {
		t.Errorf("IN subquery count = %v, want 30", r.Rows[0][0])
	}
	r2 := e.MustExec("SELECT COUNT(*) FROM prod WHERE cat NOT IN (SELECT cat FROM hot)")
	if r2.Rows[0][0].I != 70 {
		t.Errorf("NOT IN subquery count = %v, want 70", r2.Rows[0][0])
	}
}

func TestInSubqueryWithInnerPredicateAndParams(t *testing.T) {
	e := subqueryEngine(t)
	r := e.MustExec("SELECT COUNT(*) FROM prod WHERE cat IN (SELECT cat FROM hot WHERE cat > ?)",
		types.Int(4))
	if r.Rows[0][0].I != 20 { // cats 5 and 7
		t.Errorf("filtered subquery count = %v, want 20", r.Rows[0][0])
	}
}

func TestNestedInSubquery(t *testing.T) {
	e := subqueryEngine(t)
	r := e.MustExec(`SELECT COUNT(*) FROM prod
		WHERE cat IN (SELECT cat FROM hot WHERE cat IN (SELECT cat FROM hot WHERE cat < 6))`)
	if r.Rows[0][0].I != 20 { // cats 2 and 5
		t.Errorf("nested subquery count = %v, want 20", r.Rows[0][0])
	}
}

func TestInSubqueryAggregateInner(t *testing.T) {
	e := subqueryEngine(t)
	// single max cat from hot = 7 → 10 rows
	r := e.MustExec("SELECT COUNT(*) FROM prod WHERE cat IN (SELECT MAX(cat) FROM hot)")
	if r.Rows[0][0].I != 10 {
		t.Errorf("aggregate subquery count = %v, want 10", r.Rows[0][0])
	}
}

func TestInSubqueryErrors(t *testing.T) {
	e := subqueryEngine(t)
	if _, err := e.Exec("SELECT COUNT(*) FROM prod WHERE cat IN (SELECT cat, cat FROM hot)"); err == nil {
		t.Error("multi-column subquery should fail")
	}
	if _, err := e.Exec("SELECT COUNT(*) FROM prod WHERE cat IN (SELECT prod.cat FROM hot)"); err == nil {
		t.Error("correlated reference should fail (unknown table in subquery scope)")
	}
}

func TestSubqueryBypassesPlanCache(t *testing.T) {
	e := subqueryEngine(t)
	e.Cache = NewPlanCache(3)
	q := "SELECT COUNT(*) FROM prod WHERE cat IN (SELECT cat FROM hot)"
	r1 := e.MustExec(q)
	// Change the subquery's result: cached plans must not freeze it.
	e.MustExec("INSERT INTO hot VALUES (9)")
	r2 := e.MustExec(q)
	if r1.Rows[0][0].I != 30 || r2.Rows[0][0].I != 40 {
		t.Errorf("subquery result frozen: %v then %v", r1.Rows[0][0], r2.Rows[0][0])
	}
	if s := e.Cache.Stats(); s.Hits != 0 || s.Uncacheable != 2 || e.Cache.Len() != 0 {
		t.Errorf("subquery statements must not enter the plan cache: %+v", s)
	}
}

func TestCountDistinct(t *testing.T) {
	e := subqueryEngine(t)
	r := e.MustExec("SELECT COUNT(DISTINCT cat) FROM prod")
	if r.Rows[0][0].I != 10 {
		t.Errorf("COUNT(DISTINCT cat) = %v, want 10", r.Rows[0][0])
	}
	r2 := e.MustExec("SELECT cat, COUNT(DISTINCT price), COUNT(price) FROM prod WHERE cat < 2 GROUP BY cat ORDER BY cat")
	if len(r2.Rows) != 2 {
		t.Fatalf("groups = %d", len(r2.Rows))
	}
	// Each cat has 10 distinct prices here; both counts equal 10.
	if r2.Rows[0][1].I != 10 || r2.Rows[0][2].I != 10 {
		t.Errorf("distinct vs plain count wrong: %v", r2.Rows[0])
	}
	// SUM(DISTINCT) dedups: insert duplicate prices in one category.
	e.MustExec("CREATE TABLE d (g int, v int)")
	e.MustExec("INSERT INTO d VALUES (1, 5), (1, 5), (1, 7)")
	r3 := e.MustExec("SELECT SUM(DISTINCT v), SUM(v), COUNT(DISTINCT v) FROM d")
	if r3.Rows[0][0].AsFloat() != 12 || r3.Rows[0][1].AsFloat() != 17 || r3.Rows[0][2].I != 2 {
		t.Errorf("DISTINCT aggregation wrong: %v", r3.Rows[0])
	}
}

func TestCountDistinctParsedForm(t *testing.T) {
	e := subqueryEngine(t)
	p, err := e.Explain("SELECT COUNT(DISTINCT cat) FROM prod")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "HashAggregate") {
		t.Errorf("plan missing aggregate:\n%s", p)
	}
}
