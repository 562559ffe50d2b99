package opt

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// The three point_lookup shapes of the benchmark.
const (
	lookupOrderByKey = `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`
	lookupCustNation = `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
		FROM customer, nation
		WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`
	lookupOrderLines = `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
		FROM orders, lineitem, customer, nation
		WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
		AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`
)

// benchCatalog is the catalog the benchmark serves: TPC-H-lite with its three
// indexes, analyzed after they exist (scale 8 is the benchmark's own).
func benchCatalog(t *testing.T, scale float64) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: scale, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []struct {
		table, col string
		unique     bool
	}{{"orders", "o_orderkey", true}, {"customer", "c_custkey", true}, {"lineitem", "l_orderkey", false}} {
		if _, err := cat.CreateIndex(nil, ix.table, "ix_"+ix.col, []string{ix.col}, ix.unique); err != nil {
			t.Fatal(err)
		}
		tb, _ := cat.Table(ix.table)
		cat.AnalyzeTable(tb, 24)
	}
	return cat
}

type suiteStmt struct {
	name, sql string
	params    []types.Value
}

// benchStatements are the statements the benchmark's analytic and lookup
// workloads send, in a fixed order.
func benchStatements() []suiteStmt {
	q := workload.TPCHQueries()
	key := []types.Value{types.Int(7)}
	return []suiteStmt{
		{"Q1", q["Q1"], nil}, {"Q3", q["Q3"], nil}, {"Q5", q["Q5"], nil}, {"Q6", q["Q6"], nil}, {"Q10", q["Q10"], nil},
		{"order-by-key", lookupOrderByKey, key}, {"cust-nation", lookupCustNation, key}, {"order-lines", lookupOrderLines, key},
	}
}

// fastOptimizer is the optimizer of the benchmark's analytic_fast
// configuration: columnar snapshots on every table and the columnar access
// path on. (DOP 2 marks nodes, which EXPLAIN does not show; the runtime
// filters' credit is applied per plan by CreditRuntimeFilters.)
func fastOptimizer(cat *catalog.Catalog) *Optimizer {
	for _, tb := range cat.Tables() {
		cat.BuildColumnar(tb, storage.DefaultColBlock)
	}
	o := New(cat)
	o.Opt.Columnar = true
	return o
}

// TestHashJoinsBuildOnSmallerInput: the enumerator offers every join both
// ways round, and a hash join charges a build row twice a probe row, so in
// every plan of the benchmark's statements, the E7 equivalence packs and the
// star workload E1–E3 and E5's successors run, each inner hash join builds
// (Kids[1]) on the input estimated no larger than the one it probes with —
// unless the two orders cost the same to within better's tie band, where the
// plan signature decides.
func TestHashJoinsBuildOnSmallerInput(t *testing.T) {
	type suite struct {
		name  string
		cat   *catalog.Catalog
		stmts []suiteStmt
	}
	tpch := benchCatalog(t, 8)
	var packs []suiteStmt
	for _, p := range workload.EquivalencePacks() {
		for i, q := range p.Queries {
			packs = append(packs, suiteStmt{fmt.Sprintf("%s/%d", p.Name, i), q, nil})
		}
	}
	star, err := workload.BuildStar(workload.DefaultStar())
	if err != nil {
		t.Fatal(err)
	}
	var starQs []suiteStmt
	for i, q := range workload.StarWorkload(workload.DefaultStar(), 24, 0.5, 3) {
		starQs = append(starQs, suiteStmt{fmt.Sprintf("star/%d", i), q.SQL, nil})
	}
	joins := 0
	check := func(name string, o *Optimizer, cat *catalog.Catalog, st suiteStmt) {
		root, err := o.Optimize(bindQ(t, cat, st.sql), st.params)
		if err != nil {
			t.Fatalf("%s %s: %v", name, st.name, err)
		}
		plan.Walk(root, func(n plan.Node) {
			j, ok := n.(*plan.JoinNode)
			if !ok || j.Alg != plan.JoinHash || j.Type != plan.Inner {
				return
			}
			joins++
			probe, build := j.Kids[0].Props().EstRows, j.Kids[1].Props().EstRows
			// What commuting the children would save, against the band within
			// which better calls two candidates equal.
			saving := (build - probe) * o.CM.HashProbe
			if build > probe && saving > tieBand*(2*j.Prop.EstCost+1) {
				t.Errorf("%s %s: %s builds on %.0f rows and probes with %.0f:\n%s", name, st.name, j.Label(), build, probe, plan.Explain(root))
			}
		})
	}
	for _, s := range []suite{{"tpch", tpch, benchStatements()}, {"equiv", tpch, packs}, {"star", star, starQs}} {
		for _, st := range s.stmts {
			check(s.name, New(s.cat), s.cat, st)
		}
	}
	fast := fastOptimizer(tpch)
	for _, st := range benchStatements() {
		check("tpch-columnar", fast, tpch, st)
	}
	if joins < 20 {
		t.Fatalf("only %d hash joins checked: the suites no longer plan any", joins)
	}
}

var fromList = regexp.MustCompile(`(?s)FROM\s+(\w+(?:\s*,\s*\w+)+)\s+WHERE`)

// TestCommutedFromListsOnePlan is the equivalent-query requirement better's
// tie-break exists for, over the search space that now holds each join both
// ways round: every rotation of a statement's FROM list, and its reverse,
// plans to one PlanSignature.
func TestCommutedFromListsOnePlan(t *testing.T) {
	cat := benchCatalog(t, 8)
	star, err := workload.BuildStar(workload.DefaultStar())
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		cat *catalog.Catalog
		st  suiteStmt
	}
	var cases []tc
	for _, st := range benchStatements() {
		cases = append(cases, tc{cat, st})
	}
	for i, q := range workload.StarWorkload(workload.DefaultStar(), 4, 0.5, 3) {
		cases = append(cases, tc{star, suiteStmt{fmt.Sprintf("star/%d", i), q.SQL, nil}})
	}
	commuted := 0
	for _, c := range cases {
		m := fromList.FindStringSubmatchIndex(c.st.sql)
		if m == nil {
			continue // a single relation
		}
		rels := strings.Split(c.st.sql[m[2]:m[3]], ",")
		for i := range rels {
			rels[i] = strings.TrimSpace(rels[i])
		}
		var orders [][]string
		for r := range rels {
			orders = append(orders, append(append([]string{}, rels[r:]...), rels[:r]...))
		}
		rev := append([]string{}, rels...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		orders = append(orders, rev)
		want := ""
		for _, order := range orders {
			q := c.st.sql[:m[2]] + strings.Join(order, ", ") + c.st.sql[m[3]:]
			root, err := New(c.cat).Optimize(bindQ(t, c.cat, q), c.st.params)
			if err != nil {
				t.Fatalf("%s FROM %v: %v", c.st.name, order, err)
			}
			sig := plan.PlanSignature(root)
			if want == "" {
				want = sig
			} else if sig != want {
				t.Errorf("%s: FROM %v plans\n  %s\nthe statement as written\n  %s", c.st.name, order, sig, want)
			}
			commuted++
		}
	}
	if commuted < 20 {
		t.Fatalf("only %d FROM lists planned", commuted)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the plans the optimizer produces now")

// TestPlanGoldens pins the EXPLAIN text of the benchmark's statements — the
// five analytic ones under the default configuration and under analytic_fast's
// (columnar access paths, runtime filters credited), and the three lookup
// shapes — at the benchmark's scale, so that a change which moves a plan shows
// the move in its diff. After an intended move: go test ./internal/opt -run
// TestPlanGoldens -update.
func TestPlanGoldens(t *testing.T) {
	const path = "testdata/plans.golden"
	cat := benchCatalog(t, 8)
	var sb strings.Builder
	render := func(config string, o *Optimizer, st suiteStmt, rf bool) {
		root, err := o.Optimize(bindQ(t, cat, st.sql), st.params)
		if err != nil {
			t.Fatalf("%s %s: %v", config, st.name, err)
		}
		if rf {
			o.CreditRuntimeFilters(root)
		}
		fmt.Fprintf(&sb, "== %s [%s]\n%s\n", st.name, config, plan.Explain(root))
	}
	stmts := benchStatements()
	for _, st := range stmts {
		render("default", New(cat), st, false)
	}
	fast := fastOptimizer(cat)
	for _, st := range stmts[:5] {
		render("dop 2 + columnar + runtime filters", fast, st, true)
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("plans moved (go test ./internal/opt -run TestPlanGoldens -update accepts them):\n%s", lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  - %s\n  + %s\n", i+1, wl, gl)
		}
	}
	return sb.String()
}
