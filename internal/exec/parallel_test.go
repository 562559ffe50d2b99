package exec

import (
	"math/rand"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// buildParallelCatalog creates integer tables sized well past a page so
// scans split into many morsels. pa and pb carry NULL join keys (which must
// never match); integer data keeps SUM/AVG merges exact, so parallel
// results can be compared across worker counts byte for byte.
func buildParallelCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cat := catalog.New()
	mk := func(name string, rows int, mod int64, nullEvery int) {
		tb, err := cat.CreateTable(name, types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "g", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			k := types.Int(rng.Int63n(mod))
			if nullEvery > 0 && i%nullEvery == 0 {
				k = types.Null()
			}
			cat.Insert(nil, tb, types.Row{k, types.Int(int64(i % 7)), types.Int(int64(i))})
		}
		cat.AnalyzeTable(tb, 8)
	}
	mk("pa", 1200, 40, 17)
	mk("pb", 700, 40, 13)
	mk("pc", 300, 40, 0)
	return cat
}

// parallelQueries covers the morsel-driven repertoire: plain and filtered
// scans, two- and three-way hash joins, left outer join, global and grouped
// aggregation, DISTINCT and AVG.
var parallelQueries = []string{
	`SELECT pa.v FROM pa WHERE pa.v < 600`,
	`SELECT pa.v, pb.v FROM pa, pb WHERE pa.k = pb.k`,
	`SELECT pa.v, pb.v, pc.v FROM pa, pb, pc WHERE pa.k = pb.k AND pb.k = pc.k AND pc.v < 200`,
	`SELECT COUNT(*) FROM pa, pb WHERE pa.k = pb.k`,
	`SELECT pa.g, COUNT(*), SUM(pa.v), MIN(pa.v), MAX(pa.v) FROM pa GROUP BY pa.g`,
	`SELECT pa.g, COUNT(DISTINCT pa.k) FROM pa GROUP BY pa.g`,
	`SELECT AVG(pa.v) FROM pa`,
	`SELECT pa.v, pb.v FROM pa LEFT JOIN pb ON pa.k = pb.k`,
	`SELECT pb.g, COUNT(*) FROM pa, pb WHERE pa.k = pb.k GROUP BY pb.g`,
}

// parallelPlanFor optimizes q and forces every join onto the hash algorithm,
// so the morsel pipeline (scans, hash joins, hash aggregation) sees every
// query.
func parallelPlanFor(t testing.TB, cat *catalog.Catalog, q string) plan.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	o := opt.New(cat)
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.JoinNode); ok {
			j.Alg = plan.JoinHash
		}
	})
	return root
}

func rowsJoined(rows []types.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// TestParallelMatchesSerial is the tentpole property: for every repertoire
// query, execution at DOP 2 and 8 must return the exact row sequence of one
// worker's run (not just the same set — the exchange preserves order) AND
// consume exactly the same simulated cost, because the workers issue the same
// multiset of clock charges.
func TestParallelMatchesSerial(t *testing.T) {
	cat := buildParallelCatalog(t)
	for _, q := range parallelQueries {
		root := parallelPlanFor(t, cat, q)
		sctx := NewContext()
		want, err := Run(root, sctx)
		if err != nil {
			t.Fatalf("%q dop=1: %v", q, err)
		}
		wantCost := sctx.Clock.Units()
		wantStr := rowsJoined(want)
		for _, d := range []int{2, 8} {
			ctx := NewContext()
			ctx.DOP = d
			got, err := Run(root, ctx)
			if err != nil {
				t.Fatalf("%q dop=%d: %v", q, d, err)
			}
			if gs := rowsJoined(got); gs != wantStr {
				t.Errorf("%q dop=%d: %d rows diverge from one worker's %d rows", q, d, len(got), len(want))
			}
			if c := ctx.Clock.Units(); c != wantCost {
				t.Errorf("%q dop=%d: cost %v != one worker's cost %v", q, d, c, wantCost)
			}
		}
	}
}

// TestParallelDeterminism re-runs every query at DOP 8 and demands
// byte-identical output each time: worker interleaving must never leak
// into results.
func TestParallelDeterminism(t *testing.T) {
	cat := buildParallelCatalog(t)
	for _, q := range parallelQueries {
		var ref string
		for trial := 0; trial < 3; trial++ {
			root := parallelPlanFor(t, cat, q)
			ctx := NewContext()
			ctx.DOP = 8
			rows, err := Run(root, ctx)
			if err != nil {
				t.Fatalf("%q trial %d: %v", q, trial, err)
			}
			got := rowsJoined(rows)
			if trial == 0 {
				ref = got
			} else if got != ref {
				t.Errorf("%q trial %d: output differs from trial 0", q, trial)
			}
		}
	}
}

// TestParallelActualRows checks that fused scans still report their
// observed cardinality (the raw input of every robustness metric) even
// though no standalone scan operator runs.
func TestParallelActualRows(t *testing.T) {
	cat := buildParallelCatalog(t)
	q := `SELECT COUNT(*) FROM pa, pb WHERE pa.k = pb.k`
	root := parallelPlanFor(t, cat, q)
	ctx := NewContext()
	ctx.DOP = 4
	if _, err := Run(root, ctx); err != nil {
		t.Fatal(err)
	}
	plan.Walk(root, func(n plan.Node) {
		if sc, ok := n.(*plan.ScanNode); ok {
			if sc.Prop.ActualRows() < 0 {
				t.Errorf("scan %s: ActualRows unset after parallel run", sc.Label())
			}
		}
	})
}
