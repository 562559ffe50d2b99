package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// e31Shape is one parameterised statement with the binds that cover its
// parameter's domain.
type e31Shape struct {
	key   string // headline prefix
	cat   *catalog.Catalog
	sql   string
	binds []types.Value
}

// E31PlanCacheRegions draws the robustness map of the plan cache's region
// rule (core.PlanCache), by the method of Graefe, Kuno and Wiener: for a
// parameterised statement, executed cost of the plan the cache serves over
// executed cost of the plan a fresh optimization picks, at every point of the
// parameter's domain. Five shapes: the E5 range `x >= 0 AND x <= ?`, whose
// best plan flips from index to scan as ? grows; the benchmark's three key
// lookups, whose selectivity no value moves; and TPC-H-lite Q3 with its date
// as the parameter. Binds arrive in a seeded random order, as from many
// clients, so regions grow from both sides and widen across gaps nobody has
// asked the optimizer about — where the convexity assumption is on trial.
// Per shape: optimizer calls saved (hits), plans kept (variants), the worst
// and the mean cost ratio; for the sweep also where each engine flips to the
// scan. The bound to hold is 1+λ (core.PlanCachePenalty) everywhere, and
// exactly 1 on the lookups.
func E31PlanCacheRegions(scale float64) (*Report, error) {
	r := newReport("E31", "plan-cache regions: cached-plan cost over fresh-plan cost across the parameter domain")
	sweep, err := smoothTable(scaleInt(30000, scale))
	if err != nil {
		return nil, err
	}
	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 4 * scale, Seed: 1})
	if err != nil {
		return nil, err
	}
	setup := core.Attach(tpch, core.DefaultConfig())
	for _, ddl := range []string{
		`CREATE UNIQUE INDEX orders_pk ON orders (o_orderkey)`,
		`CREATE UNIQUE INDEX customer_pk ON customer (c_custkey)`,
		`CREATE INDEX lineitem_order ON lineitem (l_orderkey)`,
		`ANALYZE orders`, `ANALYZE customer`, `ANALYZE lineitem`,
	} {
		if _, err := setup.Exec(ddl); err != nil {
			return nil, err
		}
	}
	orders, _ := tpch.Table("orders")
	customers, _ := tpch.Table("customer")
	// ints covers [lo, hi] in n steps and adds a point on either side.
	ints := func(lo, hi int64, n int, mk func(int64) types.Value) []types.Value {
		out := []types.Value{mk(lo - 1 - (hi-lo)/10), mk(hi + 1 + (hi-lo)/10)}
		for i := 0; i <= n; i++ {
			out = append(out, mk(lo+(hi-lo)*int64(i)/int64(n)))
		}
		return out
	}
	// The sweep's binds are spaced cubically, as in E5: dense at the low
	// selectivities where the index/scan crossover lives.
	var cubic []types.Value
	for i := 0; i <= 400; i++ {
		f := float64(i) / 400
		cubic = append(cubic, types.Int(int64(10500*f*f*f)-50))
	}
	shapes := []e31Shape{
		{"sweep", sweep, `SELECT COUNT(*) FROM sweep WHERE x >= 0 AND x <= ?`, cubic},
		{"lookup_order", tpch, `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`,
			ints(0, orders.Heap.NumRows()-1, 200, types.Int)},
		{"lookup_cust", tpch, `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
			FROM customer, nation WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`,
			ints(0, customers.Heap.NumRows()-1, 200, types.Int)},
		{"lookup_lines", tpch, `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
			FROM orders, lineitem, customer, nation
			WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
			AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`,
			ints(0, orders.Heap.NumRows()-1, 200, types.Int)},
		{"q3_date", tpch, `SELECT orders.o_orderkey, SUM(lineitem.l_extendedprice) AS revenue
			FROM customer, orders, lineitem
			WHERE customer.c_mktsegment = 'BUILDING' AND customer.c_custkey = orders.o_custkey
			AND lineitem.l_orderkey = orders.o_orderkey AND orders.o_orderdate < ?
			GROUP BY orders.o_orderkey ORDER BY revenue DESC LIMIT 10`,
			ints(8000, 10400, 60, types.Date)},
	}
	r.Printf("%-13s %6s %6s %9s %11s %11s", "shape", "binds", "hits", "variants", "worst", "mean")
	for _, sh := range shapes {
		if err := e31Run(r, sh); err != nil {
			return nil, fmt.Errorf("%s: %w", sh.key, err)
		}
	}
	r.Set("lambda", core.PlanCachePenalty)
	return r, nil
}

// e31Run sends the shape's binds to an engine with a plan cache and to one
// without, and reports how the two compare.
func e31Run(r *Report, sh e31Shape) error {
	cached := core.Attach(sh.cat, core.DefaultConfig())
	cached.Cache = core.NewPlanCache(0)
	fresh := core.Attach(sh.cat, core.DefaultConfig())
	order := rand.New(rand.NewSource(31)).Perm(len(sh.binds))

	// Where each engine starts scanning the sweep: the smallest bind whose
	// plan reads the heap rather than the index.
	flipC, flipF := math.Inf(1), math.Inf(1)
	worst, sum := 0.0, 0.0
	for _, i := range order {
		v := sh.binds[i]
		got, err := cached.Exec(sh.sql, v)
		if err != nil {
			return err
		}
		want, err := fresh.Exec(sh.sql, v)
		if err != nil {
			return err
		}
		if types.HashRows(got.Rows) != types.HashRows(want.Rows) {
			return fmt.Errorf("bind %s: the cached plan returned other rows than the fresh one", v)
		}
		ratio := got.Cost / want.Cost
		worst, sum = math.Max(worst, ratio), sum+ratio
		if strings.Contains(got.Plan, "SeqScan(sweep)") {
			flipC = math.Min(flipC, v.AsFloat())
		}
		if strings.Contains(want.Plan, "SeqScan(sweep)") {
			flipF = math.Min(flipF, v.AsFloat())
		}
	}
	st := cached.Cache.Stats()
	variants := cached.Cache.Variants(sh.sql)
	mean := sum / float64(len(order))
	r.Printf("%-13s %6d %6d %9d %11.6f %11.6f", sh.key, len(order), st.Hits, variants, worst, mean)
	r.Set(sh.key+"_hits", float64(st.Hits))
	r.Set(sh.key+"_variants", float64(variants))
	r.Set(sh.key+"_worst_ratio", worst)
	r.Set(sh.key+"_mean_ratio", mean)
	if sh.key == "sweep" {
		r.Printf("sweep flips index -> scan at ? = %.0f cached, %.0f fresh", flipC, flipF)
		r.Set("sweep_flip_cached", flipC)
		r.Set("sweep_flip_fresh", flipF)
	}
	return nil
}
