package exec

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// joinCase is one statement of the join golden: a plan maker over its
// catalog, on heap or columnar scans, and the parameters it runs with.
type joinCase struct {
	name   string
	mk     func(columnar bool) plan.Node
	params []types.Value
}

// joinPlan plans q under o, rewrites the plan with fix (nil: as planned) and
// puts every scan on the chosen storage.
func joinPlan(t *testing.T, cat *catalog.Catalog, q string, o opt.Options, params []types.Value, fix func(plan.Node) plan.Node) func(bool) plan.Node {
	return func(columnar bool) plan.Node {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		op := opt.New(cat)
		op.Opt = o
		root, err := op.Optimize(bq, params)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if fix != nil {
			root = fix(root)
		}
		plan.Walk(root, func(n plan.Node) {
			if sc, ok := n.(*plan.ScanNode); ok {
				sc.Columnar = columnar
			}
		})
		return root
	}
}

// joins lists the plan's join nodes, the root first.
func joins(root plan.Node) []plan.Node {
	var out []plan.Node
	plan.Walk(root, func(n plan.Node) {
		switch n.(type) {
		case *plan.JoinNode, *plan.IndexJoinNode:
			out = append(out, n)
		}
	})
	return out
}

// setAlgs sets the algorithm of the plan's i-th equi-join (walk order) to
// algs[i], every later one to the last.
func setAlgs(algs ...plan.JoinAlg) func(plan.Node) plan.Node {
	return func(root plan.Node) plan.Node {
		i := 0
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok {
				j.Alg = algs[min(i, len(algs)-1)]
				i++
			}
		})
		return root
	}
}

// limitOver puts a LIMIT n directly over the plan's topmost join, dropping
// what sat above it.
func limitOver(n int, then func(plan.Node) plan.Node) func(plan.Node) plan.Node {
	return func(root plan.Node) plan.Node {
		if then != nil {
			root = then(root)
		}
		j := joins(root)[0]
		return &plan.LimitNode{Base: plan.Base{Out: j.Schema(), Kids: []plan.Node{j}, Title: "Limit"}, N: n}
	}
}

// leftOuter turns every index nested-loop join into a LEFT OUTER one.
func leftOuter(root plan.Node) plan.Node {
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.IndexJoinNode); ok {
			j.Type = plan.LeftOuter
		}
	})
	return root
}

// innerJoins turns every hash join into an inner one, keeping its sides.
func innerJoins(root plan.Node) plan.Node {
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			j.Type, j.Title = plan.Inner, j.Alg.String()
		}
	})
	return root
}

// nestedLoopOver joins the topmost joins of two statements' plans by a
// nested loop on l.c = r.c, the left one probing.
func nestedLoopOver(left, right func(bool) plan.Node, l, r [2]string) func(bool) plan.Node {
	return func(columnar bool) plan.Node {
		lj, rj := joins(left(columnar))[0], joins(right(columnar))[0]
		j := &plan.JoinNode{Alg: plan.JoinNL, Type: plan.Inner,
			LeftKeys: []int{lj.Schema().MustColIndex(l[0], l[1])}, RightKeys: []int{rj.Schema().MustColIndex(r[0], r[1])}}
		j.Kids, j.Out, j.Title = []plan.Node{lj, rj}, lj.Schema().Concat(rj.Schema()), j.Alg.String()
		return j
	}
}

// shape fails the test unless mk plans the join algorithms want, root first.
func shape(t *testing.T, c joinCase, want ...string) joinCase {
	var got []string
	for _, j := range joins(c.mk(false)) {
		label := j.Label()
		if jn, ok := j.(*plan.JoinNode); ok {
			label = jn.Alg.String()
			if k, ok := jn.Kids[1].(*plan.JoinNode); ok {
				label += "/inner=" + k.Alg.String()
			}
		}
		if ix, ok := j.(*plan.IndexJoinNode); ok {
			label = fmt.Sprintf("IndexNLJoin filter=%v residual=%v", ix.Filter != nil, ix.Residual != nil)
		}
		got = append(got, label)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s plans %v, want %v", c.name, got, want)
	}
	return c
}

func joinCases(t *testing.T) []joinCase {
	chain := chainCatalog(t)
	for _, ix := range [][2]string{{"ord", "o"}, {"cust", "c"}} {
		if _, err := chain.CreateIndex(nil, ix[0], ix[0]+"_"+ix[1], []string{ix[1]}, true); err != nil {
			t.Fatal(err)
		}
	}
	def := opt.DefaultOptions()
	ixOnly := def
	ixOnly.Joins = 1 << plan.JoinIndexNL
	mergeOnly := def
	mergeOnly.Joins = 1 << plan.JoinMerge
	nl, hash := plan.JoinNL, plan.JoinHash
	const (
		inner   = `SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 2`
		noKeys  = `SELECT li.v, ord.d FROM li LEFT JOIN ord ON li.v < ord.d WHERE li.g = 0`
		outer   = `SELECT li.v, ord.d FROM li LEFT JOIN ord ON li.o = ord.o WHERE li.g < 3`
		dups    = `SELECT li.v, cust.seg FROM li, cust WHERE li.pad = cust.seg AND li.g = 0`
		ixFilt  = `SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND ord.d < 400 AND li.v < ord.d * 6`
		ixChain = `SELECT li.v, ord.d, cust.seg FROM cust, ord, li WHERE cust.c = li.c AND li.o = ord.o AND ord.d < 400 AND li.g < 2`
		star    = `SELECT li.v, ord.d, cust.seg FROM cust, ord, li WHERE cust.c = li.c AND li.o = ord.o AND ord.d < 400 AND li.g < 2`
		nested  = `SELECT li.v, ord.d, cust.seg FROM cust, ord, li WHERE cust.c = ord.c AND li.o = ord.o AND ord.d < 400 AND li.g < 2`
		mResid  = `SELECT li.v, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 2 AND li.v < ord.d * 6`
		// li.pad holds three keys of 1 000 rows each: at a 64-row grant
		// no repartitioning splits a key, and the build falls back to
		// sort-merge past maxSpillDepth.
		skew      = `SELECT cust.c, li.v FROM cust LEFT JOIN li ON cust.seg = li.pad WHERE cust.c < 8`
		skewResid = `SELECT cust.c, li.v FROM cust LEFT JOIN li ON cust.seg = li.pad AND li.v < cust.c * 400 WHERE cust.c < 8`
	)
	cases := []joinCase{
		shape(t, joinCase{name: "nl/inner-null-keys", mk: joinPlan(t, chain, inner, def, nil, setAlgs(nl))}, "NestedLoopJoin"),
		shape(t, joinCase{name: "nl/left-outer-no-keys", mk: joinPlan(t, chain, noKeys, def, nil, nil)}, "NestedLoopJoin"),
		shape(t, joinCase{name: "nl/left-outer-null-keys", mk: joinPlan(t, chain, outer, def, nil, setAlgs(nl))}, "NestedLoopJoin"),
		shape(t, joinCase{name: "nl/duplicate-keys", mk: joinPlan(t, chain, dups, def, nil, setAlgs(nl))}, "NestedLoopJoin"),
		shape(t, joinCase{name: "nl/chain", mk: joinPlan(t, chain, star, def, nil, setAlgs(nl))}, "NestedLoopJoin", "NestedLoopJoin"),
		shape(t, joinCase{name: "ix/inner", mk: joinPlan(t, chain, ixFilt, ixOnly, nil, nil)}, "IndexNLJoin filter=true residual=true"),
		shape(t, joinCase{name: "ix/left-outer", mk: joinPlan(t, chain, ixFilt, ixOnly, nil, leftOuter)}, "IndexNLJoin filter=true residual=true"),
		shape(t, joinCase{name: "ix/chain", mk: joinPlan(t, chain, ixChain, ixOnly, nil, nil)}, "IndexNLJoin filter=false residual=false", "IndexNLJoin filter=true residual=false"),
		shape(t, joinCase{name: "mixed/nl-over-hash-probe", mk: joinPlan(t, chain, star, def, nil, setAlgs(nl, hash))}, "NestedLoopJoin", "HashJoin"),
		shape(t, joinCase{name: "mixed/hash-over-nl-probe", mk: joinPlan(t, chain, star, def, nil, setAlgs(hash, nl))}, "HashJoin", "NestedLoopJoin"),
		shape(t, joinCase{name: "mixed/nl-inner-hash", mk: joinPlan(t, chain, nested, def, nil, setAlgs(nl, hash))}, "NestedLoopJoin/inner=HashJoin", "HashJoin"),
		shape(t, joinCase{name: "mixed/hash-inner-nl", mk: joinPlan(t, chain, nested, def, nil, setAlgs(hash, nl))}, "HashJoin/inner=NestedLoopJoin", "NestedLoopJoin"),
		// A hash build and a granting nested-loop inner in one pipeline: the
		// build opens before the probe side, the inner after it.
		shape(t, joinCase{name: "mixed/nl-over-hash-probe-inner-hash", mk: nestedLoopOver(
			joinPlan(t, chain, `SELECT li.v, li.c, ord.d FROM li, ord WHERE li.o = ord.o AND li.g < 2`, def, nil, nil),
			joinPlan(t, chain, `SELECT cust.c, cust.seg, nat.r FROM cust, nat WHERE cust.n = nat.n`, def, nil, nil),
			[2]string{"li", "c"}, [2]string{"cust", "c"})}, "NestedLoopJoin/inner=HashJoin", "HashJoin", "HashJoin"),
		shape(t, joinCase{name: "merge/null-keys", mk: joinPlan(t, chain, inner, mergeOnly, nil, nil)}, "MergeJoin"),
		shape(t, joinCase{name: "merge/duplicate-keys", mk: joinPlan(t, chain, dups, mergeOnly, nil, nil)}, "MergeJoin"),
		shape(t, joinCase{name: "merge/residual", mk: joinPlan(t, chain, mResid, mergeOnly, nil, nil)}, "MergeJoin"),
		shape(t, joinCase{name: "merge/chain", mk: joinPlan(t, chain, star, mergeOnly, nil, nil)}, "MergeJoin", "MergeJoin"),
		shape(t, joinCase{name: "fallback/inner", mk: joinPlan(t, chain, skew, def, nil, innerJoins)}, "HashJoin"),
		shape(t, joinCase{name: "fallback/inner-residual", mk: joinPlan(t, chain, skewResid, def, nil, innerJoins)}, "HashJoin"),
		shape(t, joinCase{name: "fallback/left-outer", mk: joinPlan(t, chain, skew, def, nil, nil)}, "HashJoin"),
		shape(t, joinCase{name: "fallback/left-outer-residual", mk: joinPlan(t, chain, skewResid, def, nil, nil)}, "HashJoin"),
		shape(t, joinCase{name: "limit/nl", mk: joinPlan(t, chain, inner, def, nil, limitOver(7, setAlgs(nl)))}, "NestedLoopJoin"),
		shape(t, joinCase{name: "limit/ix", mk: joinPlan(t, chain, ixFilt, ixOnly, nil, limitOver(7, nil))}, "IndexNLJoin filter=true residual=true"),
	}
	// The benchmark's two join lookups over its indexed TPC-H-lite.
	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		table, col string
		unique     bool
	}{{"orders", "o_orderkey", true}, {"customer", "c_custkey", true}, {"lineitem", "l_orderkey", false}} {
		if _, err := tpch.CreateIndex(nil, ix.table, "ix_"+ix.col, []string{ix.col}, ix.unique); err != nil {
			t.Fatal(err)
		}
		tb, _ := tpch.Table(ix.table)
		tpch.AnalyzeTable(tb, 24)
	}
	for _, name := range workload.TPCHTables {
		tb, _ := tpch.Table(name)
		tpch.BuildColumnar(tb, 512)
	}
	for _, q := range []struct{ name, sql string }{
		{"cust-nation", `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
		FROM customer, nation
		WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`},
		{"order-lines", `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
		FROM orders, lineitem, customer, nation
		WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
		AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`},
	} {
		for k := int64(0); k < 24; k++ {
			params := []types.Value{types.Int(k)}
			cases = append(cases, joinCase{name: fmt.Sprintf("%s/%d", q.name, k), mk: joinPlan(t, tpch, q.sql, def, params, nil), params: params})
		}
	}
	return cases
}

// TestJoinGolden holds the streaming joins — nested-loop and index
// nested-loop, alone, chained and mixed with hash joins on either input, and
// under a LIMIT — to testdata/joins.golden, captured from the Volcano
// nested-loop operators before they became pipeline stages: on heap and
// columnar scans, under an unlimited, a 64-row and a shrinking workspace
// budget, at one worker and two, with every producer's previous row
// poisoned. Each line has the row hash, the integer cost, the broker's grant
// and release sequence, the spill counters and every join node's actual
// rows. -update rewrites it.
func TestJoinGolden(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	var b strings.Builder
	for _, c := range joinCases(t) {
		for _, columnar := range []bool{false, true} {
			for _, bud := range serialBudgets {
				for _, dop := range []int{1, 2} {
					root := c.mk(columnar)
					ctx := NewContext()
					ctx.DOP, ctx.Params = dop, c.params
					ctx.Mem = NewMemBroker(bud.budget)
					if bud.sched != nil {
						ctx.Mem.SetSchedule(bud.sched)
					}
					var mem []string
					ctx.Mem.OnEvent = func(kind string, rows, _, _ int) { mem = append(mem, fmt.Sprintf("%c%d", kind[0], rows)) }
					rows, err := Run(root, ctx)
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					p, r, pg, d, f := ctx.Spill.Snapshot()
					var actual []string
					for _, j := range joins(root) {
						actual = append(actual, fmt.Sprint(j.Props().ActualRows()))
					}
					fmt.Fprintf(&b, "%s columnar=%v budget=%s dop=%d: hash=%016x rows=%d units=%d spill=%d/%d/%d/%d/%d actual=%s mem=%s\n",
						c.name, columnar, bud.name, dop, types.HashRows(rows), len(rows), ctx.Clock.UnitsScaled(),
						p, r, pg, d, f, strings.Join(actual, "/"), strings.Join(mem, ","))
				}
			}
		}
	}
	const path = "testdata/joins.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
