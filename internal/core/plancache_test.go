package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"rqp/internal/exec"
	"rqp/internal/opt"
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

// The three point_lookup shapes of the benchmark, and a join with no equality
// between its relations for a NestedLoopJoin plan.
const (
	lookupOrder = `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`
	lookupCust  = `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
		FROM customer, nation
		WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`
	lookupLines = `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
		FROM orders, lineitem, customer, nation
		WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
		AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`
	lookupNL = `SELECT customer.c_custkey, nation.n_name FROM customer, nation
		WHERE customer.c_nationkey < nation.n_nationkey AND customer.c_custkey = ?`
)

// lookupEngines returns a cached and an uncached engine over one small
// TPC-H-lite catalog with the indexes the lookups take.
func lookupEngines(t testing.TB, scale float64) (cached, fresh *Engine) {
	t.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh = Attach(cat, DefaultConfig())
	for _, ddl := range []string{
		`CREATE UNIQUE INDEX orders_pk ON orders (o_orderkey)`,
		`CREATE UNIQUE INDEX customer_pk ON customer (c_custkey)`,
		`CREATE INDEX lineitem_order ON lineitem (l_orderkey)`,
		`ANALYZE orders`, `ANALYZE customer`, `ANALYZE lineitem`,
	} {
		fresh.MustExec(ddl)
	}
	cached = Attach(cat, DefaultConfig())
	cached.Cache = NewPlanCache(0)
	return cached, fresh
}

// planShape is Result.Plan without the estimates and actuals: the operators
// and the tree, what plan.PlanSignature compares.
func planShape(p string) string {
	lines := strings.Split(p, "\n")
	for i, l := range lines {
		if at := strings.Index(l, " ("); at >= 0 {
			lines[i] = l[:at]
		}
	}
	return strings.Join(lines, "\n")
}

// sameOutcome fails unless two executions of one statement agree on the
// error, or on rows, exact cost and the plan's structure. (The estimates
// printed in a cached plan are those of the bind it was optimized at.)
func sameOutcome(t *testing.T, what string, got *Result, gotErr error, want *Result, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, uncached %v", what, gotErr, wantErr)
		}
		return
	}
	if rowsKey(got) != rowsKey(want) || got.Cost != want.Cost || planShape(got.Plan) != planShape(want.Plan) {
		t.Errorf("%s: cached execution differs from uncached\ncost %v vs %v\n%s--- uncached\n%s", what, got.Cost, want.Cost, got.Plan, want.Plan)
	}
}

// TestPlanCacheParameterizedExact runs the lookup shapes over every key of a
// small catalog, keys that are absent, NULL, a string where the column is an
// int, and no parameter at all: a statement served from the cache returns
// the rows, the exact cost and the plan of an engine without one, and after
// the first binds of each kind it never optimizes.
func TestPlanCacheParameterizedExact(t *testing.T) {
	cached, fresh := lookupEngines(t, 1)
	orders, _ := fresh.Cat.Table("orders")
	customers, _ := fresh.Cat.Table("customer")
	for _, shape := range []struct {
		sql  string
		keys int64
	}{
		{lookupOrder, orders.Heap.NumRows()},
		{lookupCust, customers.Heap.NumRows()},
		{lookupLines, orders.Heap.NumRows()},
	} {
		binds := [][]types.Value{{types.Null()}, {types.Str("seven")}, {types.Int(-5)}, {types.Int(shape.keys + 100)}, {}}
		for k := int64(0); k < shape.keys; k++ {
			binds = append(binds, []types.Value{types.Int(k)})
		}
		before := cached.Cache.Stats()
		for _, params := range binds {
			got, gotErr := cached.Exec(shape.sql, params...)
			want, wantErr := fresh.Exec(shape.sql, params...)
			sameOutcome(t, shape.sql[:30]+fmt.Sprint(params), got, gotErr, want, wantErr)
		}
		after := cached.Cache.Stats()
		// One optimization per kind of bind — NULL, string, an int outside
		// the key range, one inside (a unique key's selectivity is one
		// value), the short parameter list — whatever the number of keys.
		if misses := after.Misses - before.Misses; misses != 5 {
			t.Errorf("%.30s: %d misses over %d binds", shape.sql, misses, len(binds))
		}
		if hits := after.Hits - before.Hits; hits < int(shape.keys)-1 {
			t.Errorf("%.30s: %d hits over %d keys", shape.sql, hits, shape.keys)
		}
	}
	if st := cached.Cache.Stats(); st.Uncacheable != 0 || st.Parses != 3 {
		t.Errorf("three texts were sent, all cacheable: %+v", st)
	}
}

// TestPlanCacheInvalidation: every DDL statement drops the cached statements
// with their plans, and what is planned next sees the new physical design.
func TestPlanCacheInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = "SELECT v FROM pc WHERE id = ?"
	run := func() *Result {
		t.Helper()
		res := e.MustExec(q, types.Int(42))
		if len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
			t.Fatalf("rows %v", res.Rows)
		}
		return res
	}
	for _, ddl := range []string{
		"CREATE UNIQUE INDEX pc_id ON pc (id)",
		"DROP INDEX pc_id ON pc",
		"CREATE TABLE other (a int)",
		"DROP TABLE other",
	} {
		run()
		if e.Cache.Len() != 1 {
			t.Fatalf("before %s: %d statements cached, want 1", ddl, e.Cache.Len())
		}
		parses := e.Cache.Stats().Parses
		e.MustExec(ddl)
		if e.Cache.Len() != 0 {
			t.Errorf("%s left %d statements cached", ddl, e.Cache.Len())
		}
		res := run()
		if got := e.Cache.Stats().Parses; got != parses+1 {
			t.Errorf("after %s the statement was parsed %d times, want once", ddl, got-parses)
		}
		if wantIndex := strings.HasPrefix(ddl, "CREATE UNIQUE INDEX"); strings.Contains(res.Plan, "IndexScan") != wantIndex {
			t.Errorf("after %s: index scan = %v, want %v\n%s", ddl, !wantIndex, wantIndex, res.Plan)
		}
	}
}

// TestPlanCacheBounded sends far more distinct texts than the cache holds:
// it stays at its capacity, counts what it displaced, and the one statement
// that stayed in use all along is never displaced.
func TestPlanCacheBounded(t *testing.T) {
	e := Open(DefaultConfig())
	e.Cache = NewPlanCache(0)
	e.MustExec("CREATE TABLE pc (id int, v int)")
	e.MustExec("INSERT INTO pc VALUES (1, 1), (2, 2)")
	const hot = "SELECT v FROM pc WHERE id = ?"
	e.MustExec(hot, types.Int(1))
	const texts = 10000
	for i := 0; i < texts; i++ {
		e.MustExec(fmt.Sprintf("SELECT v FROM pc WHERE id = %d", i))
		if i%100 == 0 {
			e.MustExec(hot, types.Int(int64(i)))
		}
	}
	st := e.Cache.Stats()
	if e.Cache.Len() != planCacheCap || st.Evictions != texts+1-planCacheCap {
		t.Errorf("%d statements cached (cap %d), %d evictions", e.Cache.Len(), planCacheCap, st.Evictions)
	}
	if st.Parses != texts+1 {
		t.Errorf("%d parses for %d texts: the statement in use was displaced", st.Parses, texts+1)
	}
	if n := len(e.Cache.entries); n > 2*planCacheCap {
		t.Errorf("%d keys for %d statements", n, planCacheCap)
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

// TestPlanCacheInvalidateOnAnalyze: ANALYZE drops the plans of the statements
// that read the table and keeps the statements, so the next execution
// optimizes against the new statistics without parsing or binding.
func TestPlanCacheInvalidateOnAnalyze(t *testing.T) {
	e := cacheEngine(t)
	const q = "SELECT COUNT(*) FROM pc WHERE v = 3"
	e.MustExec(q)
	if e.Cache.Len() != 1 || e.Cache.Variants(q) != 1 {
		t.Fatal("plan not cached")
	}
	before := e.Cache.Stats()
	e.MustExec("ANALYZE pc")
	if e.Cache.Len() != 1 || e.Cache.Variants(q) != 0 {
		t.Errorf("after ANALYZE: %d statements with %d plans, want the statement and no plan", e.Cache.Len(), e.Cache.Variants(q))
	}
	e.MustExec(q)
	if st := e.Cache.Stats(); st.Parses != before.Parses || st.Misses != before.Misses+1 || e.Cache.Variants(q) != 1 {
		t.Errorf("after ANALYZE the statement must re-optimize and not parse: %+v, before %+v", st, before)
	}
}

// TestAnalyzeInvalidatesByTable: ANALYZE orders leaves a customer statement
// a hit, and makes an orders statement re-optimize against the statistics
// it installed — here after the ten days it reads filled up with new orders,
// which flips the range read from the index to a scan — with no statement
// parsed again. Automatic statistics maintenance goes the same way.
func TestAnalyzeInvalidatesByTable(t *testing.T) {
	for _, auto := range []bool{false, true} {
		e, _ := lookupEngines(t, 2)
		e.Cfg.AutoAnalyze = auto
		e.MustExec(`CREATE INDEX orders_date ON orders (o_orderdate)`)
		const (
			customer = `SELECT c_acctbal FROM customer WHERE c_custkey = ?`
			orders   = `SELECT COUNT(*) FROM orders WHERE o_orderdate >= DATE(9000) AND o_orderdate < DATE(9010)`
			join     = `SELECT COUNT(*) FROM customer LEFT JOIN orders ON c_custkey = o_custkey WHERE c_custkey = 3`
		)
		for i := 0; i < 2; i++ {
			e.MustExec(customer, types.Int(7))
			e.MustExec(orders)
			e.MustExec(join)
		}
		before := e.Cache.Stats()
		planBefore := planShape(e.MustExec(orders).Plan)
		if !strings.Contains(planBefore, "IndexScan") {
			t.Fatalf("the selective range should take the index:\n%s", planBefore)
		}
		before.Hits++

		// Every new order falls in the range the statement reads.
		for i := 0; i < 24; i++ {
			stmt := "INSERT INTO orders VALUES "
			for j := 0; j < 100; j++ {
				if j > 0 {
					stmt += ", "
				}
				stmt += fmt.Sprintf("(%d, 1, DATE(9005), 5.0)", 100000+i*100+j)
			}
			e.MustExec(stmt)
		}
		if !auto {
			e.MustExec(`ANALYZE orders`)
			if e.Cache.Variants(customer) != 1 || e.Cache.Variants(orders) != 0 || e.Cache.Variants(join) != 0 {
				t.Errorf("ANALYZE orders left %d customer, %d orders and %d outer-join plans, want 1, 0, 0",
					e.Cache.Variants(customer), e.Cache.Variants(orders), e.Cache.Variants(join))
			}
		}
		e.MustExec(customer, types.Int(7))
		if st := e.Cache.Stats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
			t.Errorf("auto=%v: the customer statement must stay a hit across ANALYZE orders: %+v, before %+v", auto, st, before)
		}
		planAfter := planShape(e.MustExec(orders).Plan)
		e.MustExec(join)
		st := e.Cache.Stats()
		if st.Misses != before.Misses+2 || st.Parses != before.Parses {
			t.Errorf("auto=%v: the two orders statements must re-optimize once each, parsing nothing: %+v, before %+v", auto, st, before)
		}
		if planAfter == planBefore || strings.Contains(planAfter, "IndexScan") {
			t.Errorf("auto=%v: the plan should follow the new statistics off the index:\n%s", auto, planAfter)
		}
		e.MustExec(orders)
		if got := e.Cache.Stats(); got.Hits != st.Hits+1 {
			t.Errorf("auto=%v: the re-optimized plan was not cached: %+v", auto, got)
		}
	}
}

// TestLookupRacingAnalyze plays the interleaving the invalidation counters
// exist for, by hand: a session looks its statement up, ANALYZE (or DDL)
// lands while it optimizes, and only then does it come back with its plan.
// The plan may predate the new statistics: it is not stored, and a lookup
// after the invalidation is not handed a plan from before it.
func TestLookupRacingAnalyze(t *testing.T) {
	e := cacheEngine(t)
	const q = "SELECT COUNT(*) FROM pc WHERE v = ?"
	params := []types.Value{types.Int(3)}
	e.MustExec(q, params...)
	st := e.Cache.statement(q)
	pc, _ := e.Cat.Table("pc")
	other, _ := e.Cat.CreateTable("other", pc.Schema)
	point := []float64{0.02}
	if hit, _ := e.Cache.lookup(st, point, params); hit == nil {
		t.Fatal("the statement's plan is not cached at its own bind")
	}

	for _, tc := range []struct {
		name       string
		invalidate func()
		stored     bool
	}{
		{"ANALYZE of another table", func() { e.Cache.InvalidateTable(other) }, true},
		{"ANALYZE of its table", func() { e.Cache.InvalidateTable(pc) }, false},
		{"DDL", e.Cache.Invalidate, false},
	} {
		e.Cache.InvalidateTable(pc) // start from a miss
		hit, seen := e.Cache.lookup(st, point, params)
		if hit != nil {
			t.Fatalf("%s: a lookup after the invalidation was handed a plan from before it", tc.name)
		}
		stale, err := e.newVariant(st, point, params)
		if err != nil {
			t.Fatal(err)
		}
		tc.invalidate()
		e.Cache.store(st, seen, nil, stale, params)
		if got := len(st.variants) == 1 && st.variants[0] == stale; got != tc.stored {
			t.Errorf("%s between lookup and store: plan stored = %v, want %v", tc.name, got, tc.stored)
		}
		if hit, _ := e.Cache.lookup(st, point, params); (hit == stale) != tc.stored {
			t.Errorf("%s between lookup and store: a later lookup was handed %v", tc.name, hit)
		}
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

// TestPlanCacheConcurrentSessions hammers one cached statement from two
// goroutines, the way two server sessions sending the same text do. Under
// -race this pins that the statement's execution count, the revalidation
// test, the variants and the counters are all read and written under the
// cache's lock; the counter identities pin that no execution was lost or
// double-counted. Then four sessions run the same parameterised texts with
// different values each — one late-bound plan per text, an IndexScan, an
// IndexNLJoin and a NestedLoopJoin among them, shared while the row-lifetime
// harness overwrites every row a producer has moved on from — and every
// execution must return what an engine without a cache returns.
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
			for i := 0; i < perSession; i++ {
				if _, _, err := e.Cache.plan(e, e.Cache.statement(q), nil); err != nil {
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

	exec.SetRowPoison(true)
	defer exec.SetRowPoison(false)
	cached, fresh := lookupEngines(t, 1)
	texts := []struct{ sql, op string }{
		{lookupOrder, "IndexScan(orders.orders_pk)"},
		{lookupLines, "IndexNLJoin(lineitem.lineitem_order)"},
		{lookupNL, "NestedLoopJoin"},
	}
	const keys = 24
	want := make([][keys]*Result, len(texts))
	for i, tx := range texts {
		for k := range want[i] {
			want[i][k] = fresh.MustExec(tx.sql, types.Int(int64(k)))
		}
		if !strings.Contains(want[i][0].Plan, tx.op) {
			t.Fatalf("no %s in the plan of %.40s:\n%s", tx.op, tx.sql, want[i][0].Plan)
		}
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; n < 3*keys; n++ {
				i, k := n%len(texts), (n+5*s)%keys
				got, err := cached.Exec(texts[i].sql, types.Int(int64(k)))
				if err != nil {
					t.Error(err)
					return
				}
				if rowsKey(got) != rowsKey(want[i][k]) || got.Cost != want[i][k].Cost || planShape(got.Plan) != planShape(want[i][k].Plan) {
					t.Errorf("session %d, %.40s, key %d: rows or cost %v differ from uncached %v", s, texts[i].sql, k, got.Cost, want[i][k].Cost)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if st := cached.Cache.Stats(); st.Hits < 4*3*keys-12 || st.Parses > 4*len(texts) {
		t.Errorf("shared statements: %+v", st)
	}
}

// TestPlanCacheConcurrentExecutions runs one cached plan from four
// goroutines with every marking pass the engine has switched on — column
// sets, runtime-filter sites and their credit, shuffle modes — and two
// workers, the way server sessions sending the same text do. The
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
		{DOP: 2, RuntimeFilters: true, Shards: 2},
		{RuntimeFilters: true},
	} {
		cfg.Options, cfg.Policy, cfg.HistBuckets = opt.DefaultOptions(), PolicyClassic, 16
		cfg.Columnar = true
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
