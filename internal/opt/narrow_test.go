package opt

import (
	"reflect"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// accessPaths lists, per table name, what every scan, index scan and index
// join of the plan emits: the table, the node's Cols and its narrow schema.
type accessPath struct {
	table *catalog.Table
	cols  []int
	out   types.Schema
}

func accessPaths(root plan.Node) map[string]accessPath {
	out := map[string]accessPath{}
	plan.Walk(root, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.ScanNode:
			out[v.Table.Name] = accessPath{v.Table, v.Cols, v.Out}
		case *plan.IndexScanNode:
			out[v.Table.Name] = accessPath{v.Table, v.Cols, v.Out}
		case *plan.IndexJoinNode:
			inner := v.Out[len(v.Kids[0].Schema()):]
			out[v.Table.Name] = accessPath{v.Table, v.Cols, inner}
		}
	})
	return out
}

// TestScansEmitMentionedColumns pins the narrowing on the statements the
// benchmark runs: every access path emits exactly the columns its statement
// mentions, in table order, under a schema of the same names — and a
// relation whose every column is mentioned keeps Cols nil, the stored row.
func TestScansEmitMentionedColumns(t *testing.T) {
	cat := benchCatalog(t, 1)
	q := workload.TPCHQueries()
	all := []string(nil) // every column: Cols must be nil
	cases := []struct {
		name, sql string
		params    []types.Value
		want      map[string][]string
	}{
		{"Q1", q["Q1"], nil, map[string][]string{
			"lineitem": {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate", "l_returnflag"}}},
		{"Q3", q["Q3"], nil, map[string][]string{
			"customer": {"c_custkey", "c_mktsegment"},
			"orders":   {"o_orderkey", "o_custkey", "o_orderdate"},
			"lineitem": {"l_orderkey", "l_extendedprice"}}},
		{"Q5", q["Q5"], nil, map[string][]string{
			"customer": {"c_custkey", "c_nationkey"},
			"orders":   {"o_orderkey", "o_custkey", "o_orderdate"},
			"lineitem": {"l_orderkey", "l_suppkey", "l_extendedprice"},
			"supplier": {"s_suppkey"},
			"nation":   all,
			"region":   {"r_regionkey"}}},
		{"Q6", q["Q6"], nil, map[string][]string{
			"lineitem": {"l_quantity", "l_extendedprice", "l_discount", "l_shipdate"}}},
		{"Q10", q["Q10"], nil, map[string][]string{
			"customer": {"c_custkey", "c_nationkey"},
			"orders":   {"o_orderkey", "o_custkey", "o_orderdate"},
			"lineitem": {"l_orderkey", "l_extendedprice", "l_returnflag"},
			"nation":   {"n_nationkey"}}},
		{"order-by-key", lookupOrderByKey, []types.Value{types.Int(7)}, map[string][]string{"orders": all}},
		{"cust-nation", lookupCustNation, []types.Value{types.Int(7)}, map[string][]string{
			"customer": all,
			"nation":   {"n_nationkey", "n_name"}}},
		{"order-lines", lookupOrderLines, []types.Value{types.Int(7)}, map[string][]string{
			"orders":   {"o_orderkey", "o_custkey"},
			"lineitem": {"l_orderkey", "l_quantity", "l_extendedprice"},
			"customer": {"c_custkey", "c_nationkey"},
			"nation":   {"n_nationkey", "n_name"}}},
	}
	for _, tc := range cases {
		root, err := New(cat).Optimize(bindQ(t, cat, tc.sql), tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		paths := accessPaths(root)
		if len(paths) != len(tc.want) {
			t.Errorf("%s: %d access paths, want %d\n%s", tc.name, len(paths), len(tc.want), plan.Explain(root))
		}
		for table, want := range tc.want {
			p, ok := paths[table]
			if !ok {
				t.Errorf("%s: no access path for %s", tc.name, table)
				continue
			}
			if want == nil {
				if p.cols != nil || len(p.out) != len(p.table.Schema) {
					t.Errorf("%s: %s mentions every column but has Cols %v, %d wide", tc.name, table, p.cols, len(p.out))
				}
				continue
			}
			var got, outNames []string
			for _, c := range p.cols {
				got = append(got, p.table.Schema[c].Name)
			}
			for _, c := range p.out {
				outNames = append(outNames, c.Name)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(outNames, want) {
				t.Errorf("%s: %s emits Cols %v under schema %v, want %v", tc.name, table, got, outNames, want)
			}
		}
	}
}

// TestIndexNLResidualOverNarrowInner: an index nested-loop join on one of two
// equi keys tests the other as a residual over the join's output. With the
// inner side narrowed (inner.a is not mentioned) that key sits where the
// inner's Cols put it, not at its table ordinal.
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
	o.Opt.DisableHash, o.Opt.DisableMerge, o.Opt.DisableNL = true, true, true
	root, err := o.Optimize(bindQ(t, cat,
		`SELECT outer_t.z, inner_t.v FROM outer_t, inner_t WHERE outer_t.x = inner_t.k AND outer_t.y = inner_t.b`), nil)
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
