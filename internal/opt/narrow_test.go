package opt

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// explainWidths renders the plan tree with each node's output column names.
func explainWidths(sb *strings.Builder, n plan.Node, depth int) {
	fmt.Fprintf(sb, "%s%s %v\n", strings.Repeat("  ", depth), n.Label(), n.Schema().Names())
	for _, c := range n.Children() {
		explainWidths(sb, c, depth+1)
	}
}

// TestPlanLiveColumns pins what every node of the benchmark's statements
// emits — the five analytic ones under the default configuration and under
// analytic_fast's, and the three lookup shapes — so that a column carried
// further than its last reader, or shed before it, shows in a diff. After an
// intended move: go test ./internal/opt -run TestPlanLiveColumns -update.
func TestPlanLiveColumns(t *testing.T) {
	const path = "testdata/widths.golden"
	cat := benchCatalog(t, 8)
	var sb strings.Builder
	render := func(config string, o *Optimizer, st suiteStmt) plan.Node {
		root, err := o.Optimize(bindQ(t, cat, st.sql), st.params)
		if err != nil {
			t.Fatalf("%s %s: %v", config, st.name, err)
		}
		fmt.Fprintf(&sb, "== %s [%s]\n", st.name, config)
		explainWidths(&sb, root, 0)
		sb.WriteByte('\n')
		return root
	}
	stmts := benchStatements()
	for _, st := range stmts {
		root := render("default", New(cat), st)
		if st.name != "Q5" {
			continue
		}
		// Q5's top build is orders ⋈ (customer ⋈ (nation ⋈ region)): of nine
		// columns, the join above reads o_orderkey and the aggregate n_name.
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok && len(leafTables(j)) == 5 {
				if got := j.Kids[1].Schema().Names(); !reflect.DeepEqual(got, []string{"orders.o_orderkey", "nation.n_name"}) {
					t.Errorf("Q5's top build emits %v, want [orders.o_orderkey nation.n_name]", got)
				}
			}
		})
	}
	fast := fastOptimizer(cat)
	for _, st := range stmts[:5] {
		render("dop 2 + columnar + runtime filters", fast, st)
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
		t.Errorf("widths moved (go test ./internal/opt -run TestPlanLiveColumns -update accepts them):\n%s", lineDiff(string(want), got))
	}
}

// TestAllocCeilingOptimize pins what planning allocates: the enumerator
// prices every algorithm of every split without allocating and builds a node
// only for one that beats its set's incumbent, and a one-relation block pays
// for its liveness one slice and one closure. Measured (a few more under the
// race detector): order-by-key 45, cust-nation 98, order-lines 496 (901 when
// every candidate was built), Q5 1 665 (5 691).
func TestAllocCeilingOptimize(t *testing.T) {
	cat := benchCatalog(t, 8)
	ceilings := map[string]float64{"order-by-key": 52, "cust-nation": 112, "order-lines": 560, "Q5": 1850}
	lookups := 0.0
	for _, st := range benchStatements() {
		ceiling, ok := ceilings[st.name]
		if !ok {
			continue
		}
		q, o := bindQ(t, cat, st.sql), New(cat)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := o.Optimize(q, st.params); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s: Optimize allocates %v objects, ceiling %v", st.name, allocs, ceiling)
		}
		if st.name != "Q5" {
			lookups += allocs / 3
		}
	}
	// The benchmark's opt.optimize_allocs on point_lookup, before PR 20
	// offered every split both ways round.
	if lookups > 274 {
		t.Errorf("the three lookup shapes: %.0f allocations per Optimize, ceiling 274", lookups)
	}
}

// leafTables lists the tables under n.
func leafTables(n plan.Node) []string {
	var out []string
	plan.Walk(n, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.ScanNode:
			out = append(out, v.Table.Name)
		case *plan.IndexScanNode:
			out = append(out, v.Table.Name)
		case *plan.IndexJoinNode:
			out = append(out, v.Table.Name)
		}
	})
	return out
}

// TestIndexNLResidualOverNarrowInner: an index nested-loop join on one of two
// equi keys tests the other as a residual over the join's output. With the
// inner side narrowed that key sits where the inner's Cols put it, not at its
// table ordinal — and inner.a, which only the inner's own filter reads, is not
// in the output at all: the filter tests the fetched row, in table
// coordinates.
func TestIndexNLResidualOverNarrowInner(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, cols ...string) *catalog.Table {
		schema := make(types.Schema, len(cols))
		for i, c := range cols {
			schema[i] = types.Column{Name: c, Kind: types.KindInt}
		}
		tb, err := cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	outer, inner := mk("outer_t", "x", "y", "z"), mk("inner_t", "a", "k", "b", "v")
	for i := 0; i < 50; i++ {
		cat.Insert(nil, outer, types.Row{types.Int(int64(i)), types.Int(int64(i % 7)), types.Int(int64(i))})
	}
	for i := 0; i < 400; i++ {
		cat.Insert(nil, inner, types.Row{types.Int(int64(i)), types.Int(int64(i % 50)), types.Int(int64(i % 7)), types.Int(int64(i))})
	}
	if _, err := cat.CreateIndex(nil, "inner_t", "ix_k", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	cat.AnalyzeTable(outer, 8)
	cat.AnalyzeTable(inner, 8)

	o := New(cat)
	o.Opt.Joins = 1 << plan.JoinIndexNL
	root, err := o.Optimize(bindQ(t, cat,
		`SELECT outer_t.z, inner_t.v FROM outer_t, inner_t
			WHERE outer_t.x = inner_t.k AND outer_t.y = inner_t.b AND inner_t.a < 300`), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ij *plan.IndexJoinNode
	plan.Walk(root, func(n plan.Node) {
		if v, ok := n.(*plan.IndexJoinNode); ok {
			ij = v
		}
	})
	if ij == nil {
		t.Fatalf("no index join:\n%s", plan.Explain(root))
	}
	if !reflect.DeepEqual(ij.Cols, []int{1, 2, 3}) {
		t.Fatalf("inner Cols %v, want [1 2 3]", ij.Cols)
	}
	if f := expr.ColumnsUsed(ij.Filter); len(f) != 1 || !f[0] {
		t.Fatalf("inner filter %v reads columns %v, want inner_t's column 0 (a)", ij.Filter, f)
	}
	// The residual must compare outer_t.y with inner_t.b, by name and by
	// position in the join's output.
	used := expr.ColumnsUsed(ij.Residual)
	var names []string
	for c := range used {
		if c >= len(ij.Out) {
			t.Fatalf("residual %s reads column %d of a %d-wide output", ij.Residual, c, len(ij.Out))
		}
		names = append(names, ij.Out[c].Name)
	}
	if len(names) != 2 || !(names[0] == "y" && names[1] == "b" || names[0] == "b" && names[1] == "y") {
		t.Errorf("residual %s reads %v, want outer_t.y and inner_t.b", ij.Residual, names)
	}
}
