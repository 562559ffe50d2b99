package main

import (
	"fmt"
	"math/rand"

	"rqp/internal/core"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// Statement kinds, for the htap_mixed per-kind breakdown.
const (
	kindSelect  = "select"
	kindInsert  = "insert"
	kindUpdate  = "update"
	kindDelete  = "delete"
	kindAnalyze = "analyze"
)

// stmt is one generated statement. For htap_mixed's DML, key and price say
// what the statement does to the harness's own model of the orders table;
// model, when set, is what that model predicts a key lookup returns.
type stmt struct {
	SQL    string
	Params []types.Value
	Kind   string
	key    int64
	price  float64
	model  *modelCheck
}

// modelCheck is a read-your-writes expectation: the PK lookup returns
// exactly rows rows, and when it returns one its o_totalprice is price.
type modelCheck struct {
	rows  int
	price float64
}

// workloadSpec fixes one workload: engine configuration, client count and
// the statement list. A pass executes perPass statements in total, each
// client walking the base list cyclically from its own offset.
type workloadSpec struct {
	name    string
	why     string
	clients int
	// perPass is the frozen statement count of one timed pass at -stmts 1.
	// At the seed commit on the 2-core box a pass takes 3-5 s (htap_mixed
	// 1.5-2 s), depending on the hour (README, "Frozen sizes").
	perPass int
	// traceRound is how many leading base statements one traced round replays.
	traceRound int
	cfg        func() core.Config
	// defaultCfg marks workloads running core.DefaultConfig(): only there
	// must CostUnits equal the oracle's, and only there is exec.Run of the
	// bare optimized plan the path the engine itself takes.
	defaultCfg bool
	// stateful workloads write: every pass gets a fresh catalog, references
	// are by position, and base covers the whole pass.
	stateful bool
	// mainTable is the table the storage/catalog microbenchmarks read.
	mainTable string
	base      func(seed int64, scale float64, perPass int) []stmt
}

func defaultConfig() core.Config { return core.DefaultConfig() }

func fastConfig() core.Config {
	c := core.DefaultConfig()
	c.DOP = 2
	c.Columnar = true
	c.RuntimeFilters = true
	return c
}

func columnarConfig() core.Config {
	c := core.DefaultConfig()
	c.Columnar = true
	return c
}

var workloads = []*workloadSpec{
	{
		name:    "point_lookup",
		why:     "parameterised 1-4 row lookups, never plan-cached: parse, bind, optimize, core bookkeeping and the per-statement round trip; bypasses every operator optimisation",
		clients: 2, perPass: 36000, traceRound: 600,
		cfg: defaultConfig, defaultCfg: true, mainTable: "orders",
		base: pointLookupBase,
	},
	{
		name:    "analytic_row",
		why:     "TPC-H-lite Q1/Q3/Q5/Q6/Q10 on the default row path, plan-cache hits: time is in exec row operators and heap scans; bypasses planner and wire changes",
		clients: 2, perPass: 200, traceRound: 20,
		cfg: defaultConfig, defaultCfg: true, mainTable: "lineitem",
		base: analyticBase,
	},
	{
		name:    "analytic_fast",
		why:     "same statements on DOP 2 + columnar + runtime filters with one client: morsel operators, ColScan and zone maps; moves apart from analytic_row when one operator family pays for the other",
		clients: 1, perPass: 200, traceRound: 20,
		cfg: fastConfig, mainTable: "lineitem",
		base: analyticBase,
	},
	{
		name:    "wide_result",
		why:     "scans returning about half or more of the rows read (thousands of rows, four kinds of value): result materialisation, RowMsg encode, socket writes and client decode",
		clients: 2, perPass: 216, traceRound: 12,
		cfg: defaultConfig, defaultCfg: true, mainTable: "orders",
		base: wideResultBase,
	},
	{
		name:    "htap_mixed",
		why:     "one connection cycling INSERT/UPDATE/DELETE, read-your-writes lookups, range GROUP BYs and ANALYZE on orders: DML drops the columnar snapshot, ANALYZE rebuilds it and flushes the plan cache",
		clients: 1, perPass: 1600, traceRound: 400,
		cfg: columnarConfig, stateful: true, mainTable: "orders",
		base: htapBase,
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Table sizes of workload.BuildTPCH, which the generators need to draw keys.
func numOrders(scale float64) int64    { return int64(1500 * scale) }
func numCustomers(scale float64) int64 { return int64(150 * scale) }

const (
	sqlOrderByKey = `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`
	sqlCustNation = `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
		FROM customer, nation
		WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`
	sqlOrderLines = `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
		FROM orders, lineitem, customer, nation
		WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
		AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`
)

// pointLookupDraws is the number of distinct (shape, key) draws; a pass
// cycles over them, so the oracle and the warm-up stay short.
const pointLookupDraws = 3000

func pointLookupBase(seed int64, scale float64, perPass int) []stmt {
	r := rand.New(rand.NewSource(seed))
	n := pointLookupDraws
	if perPass < n {
		n = max(perPass-perPass%6, 6) // whole rounds of the three shapes for either client
	}
	out := make([]stmt, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = stmt{SQL: sqlOrderByKey, Params: []types.Value{types.Int(r.Int63n(numOrders(scale)))}, Kind: kindSelect}
		case 1:
			out[i] = stmt{SQL: sqlCustNation, Params: []types.Value{types.Int(r.Int63n(numCustomers(scale)))}, Kind: kindSelect}
		default:
			out[i] = stmt{SQL: sqlOrderLines, Params: []types.Value{types.Int(r.Int63n(numOrders(scale)))}, Kind: kindSelect}
		}
	}
	return out
}

// analyticBase is Q1, Q3, Q5, Q6, Q10 at perturbation rounds 0-3: 20
// statements, 14 distinct texts (Q5 and Q10 have no perturbed literal).
// The seed shuffles the order.
func analyticBase(seed int64, _ float64, _ int) []stmt {
	var out []stmt
	for round := 0; round < 4; round++ {
		for _, q := range []string{"Q1", "Q3", "Q5", "Q6", "Q10"} {
			out = append(out, stmt{SQL: workload.PerturbTPCHQuery(q, round), Kind: kindSelect})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// wideResultBase is one orders statement to two lineitem statements: the
// lineitem results are the larger and slower, so both the median and the
// p95 latency lie inside their mode and not on the edge between the two.
func wideResultBase(seed int64, _ float64, _ int) []stmt {
	var out []stmt
	for k := 0; k < 4; k++ {
		out = append(out, stmt{SQL: fmt.Sprintf(`SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_totalprice >= %d`, 1000+500*k), Kind: kindSelect})
		for _, day := range []int{9200 + 25*k, 9300 + 25*k} {
			out = append(out, stmt{SQL: fmt.Sprintf(`SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_returnflag
				FROM lineitem WHERE l_shipdate >= DATE(%d)`, day), Kind: kindSelect})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// htapCycle is the fixed statement count of one htap_mixed cycle.
const htapCycle = 40

// htapBase writes perPass/40 cycles against a sliding window of order keys:
// each cycle inserts ten keys above the window and deletes the ten oldest,
// so the table size is stationary. Reads sit on both sides of the DML: the
// first two range reads see the snapshot ANALYZE just rebuilt, the last one
// and the key lookups fall back to the heap.
func htapBase(seed int64, scale float64, perPass int) []stmt {
	r := rand.New(rand.NewSource(seed))
	lo, hi := int64(0), numOrders(scale) // live keys are [lo, hi)
	price := map[int64]float64{}         // prices this workload wrote
	rangeRead := func(from int) stmt {
		return stmt{SQL: fmt.Sprintf(`SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders
			WHERE o_orderdate >= DATE(%d) AND o_orderdate < DATE(%d) GROUP BY o_custkey ORDER BY o_custkey`, from, from+30), Kind: kindSelect}
	}
	// Two fixed texts: each cycle's ANALYZE flushes the plan cache, so the
	// first two reads miss and the third, repeating the first, hits. The
	// ranges are the same on every seed: they are most of the workload's
	// allocations, and drawn ranges moved allocs_per_stmt by 5.6%.
	readA, readB := rangeRead(8500), rangeRead(9700)
	lookup := func(key int64, want *modelCheck) stmt {
		return stmt{SQL: sqlOrderByKey, Params: []types.Value{types.Int(key)}, Kind: kindSelect, model: want}
	}
	var out []stmt
	for c := 0; c < perPass/htapCycle; c++ {
		out = append(out, readA, readB)
		var inserted, updated, deleted []int64
		for i := 0; i < 10; i++ {
			p := 1000 + float64(r.Int63n(400000))/10
			out = append(out, stmt{SQL: fmt.Sprintf(`INSERT INTO orders VALUES (%d, %d, DATE(%d), %.1f)`,
				hi, r.Int63n(numCustomers(scale)), 8000+r.Int63n(2400), p), Kind: kindInsert, key: hi, price: p})
			price[hi] = p
			inserted = append(inserted, hi)
			hi++
		}
		for i := 0; i < 6; i++ {
			k := lo + 10 + r.Int63n(hi-lo-10) // never a key this cycle deletes
			p := 1000 + float64(r.Int63n(400000))/10
			out = append(out, stmt{SQL: fmt.Sprintf(`UPDATE orders SET o_totalprice = %.1f WHERE o_orderkey = %d`, p, k), Kind: kindUpdate, key: k, price: p})
			price[k] = p
			updated = append(updated, k)
		}
		for i := 0; i < 10; i++ {
			out = append(out, stmt{SQL: fmt.Sprintf(`DELETE FROM orders WHERE o_orderkey = %d`, lo), Kind: kindDelete, key: lo})
			delete(price, lo)
			deleted = append(deleted, lo)
			lo++
		}
		for i := 0; i < 4; i++ {
			out = append(out, lookup(inserted[i], &modelCheck{rows: 1, price: price[inserted[i]]}))
		}
		for i := 0; i < 3; i++ {
			out = append(out, lookup(updated[i], &modelCheck{rows: 1, price: price[updated[i]]}))
		}
		for i := 0; i < 3; i++ {
			out = append(out, lookup(deleted[i], &modelCheck{rows: 0}))
		}
		out = append(out, readA, stmt{SQL: `ANALYZE orders`, Kind: kindAnalyze})
	}
	return out
}
