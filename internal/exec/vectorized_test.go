package exec

import (
	"fmt"
	"testing"

	"rqp/internal/obs"
	"rqp/internal/plan"
)

// vectorizedQueries covers the batch repertoire: filtered scans, projection
// arithmetic, hash joins (inner and left outer), global and grouped hash
// aggregation — plus a LIMIT query that must NOT vectorize (batch read-ahead
// under an early-stopping parent would change page-read charges).
var vectorizedQueries = append([]string{
	`SELECT pa.v + pa.g, pa.v * 2 FROM pa WHERE pa.v < 900`,
	`SELECT pa.g, SUM(pa.v + 1) FROM pa WHERE pa.v < 1000 GROUP BY pa.g`,
}, parallelQueries...)

// actualsOf renders every node's recorded actual cardinality, pre-order.
func actualsOf(root plan.Node) string {
	s := ""
	plan.Walk(root, func(n plan.Node) {
		s += fmt.Sprintf("%s=%.0f\n", n.Label(), n.Props().ActualRows())
	})
	return s
}

// TestVectorizedMatchesRow is the tentpole property: with vectorization on,
// every repertoire query must return the exact row sequence of the
// row-at-a-time path, consume exactly the same simulated cost, and record
// identical per-node actual cardinalities (the input of every robustness
// metric) — at DOP 1 (the batch path) and DOP 2/8 (morsel operators with
// compiled expressions).
func TestVectorizedMatchesRow(t *testing.T) {
	cat := buildParallelCatalog(t)
	for _, q := range vectorizedQueries {
		root := parallelPlanFor(t, cat, q)
		sctx := NewContext()
		want, err := Run(root, sctx)
		if err != nil {
			t.Fatalf("%q row: %v", q, err)
		}
		wantCost := sctx.Clock.Units()
		wantStr := rowsJoined(want)
		wantActuals := actualsOf(root)

		for _, d := range []int{1, 2, 8} {
			r2 := parallelPlanFor(t, cat, q)
			if d > 1 {
				plan.MarkParallel(r2, 1)
			}
			plan.MarkVectorized(r2)
			ctx := NewContext()
			ctx.Vec = true
			ctx.DOP = d
			got, err := Run(r2, ctx)
			if err != nil {
				t.Fatalf("%q vec dop=%d: %v", q, d, err)
			}
			if gs := rowsJoined(got); gs != wantStr {
				t.Errorf("%q vec dop=%d: %d rows diverge from row path's %d", q, d, len(got), len(want))
			}
			if c := ctx.Clock.Units(); c != wantCost {
				t.Errorf("%q vec dop=%d: cost %v != row-path cost %v", q, d, c, wantCost)
			}
			if a := actualsOf(r2); a != wantActuals {
				t.Errorf("%q vec dop=%d: actuals diverge\nrow path:\n%svec:\n%s", q, d, wantActuals, a)
			}
		}
	}
}

// spansOf renders a span tree as label/actual/cost lines (calls are
// intentionally excluded: the batch path makes one Next call per batch).
func spansOf(s *obs.Span, depth int) string {
	out := fmt.Sprintf("%*s%s actual=%.0f cost=%v\n", depth*2, "", s.Label(), s.ActualRows(), s.Cost())
	for _, c := range s.Children() {
		out += spansOf(c, depth+1)
	}
	return out
}

// TestVectorizedTraceParity: traced runs must attribute the same inclusive
// cost and the same actual cardinality to every operator span, so EXPLAIN
// ANALYZE and the POP/LEO checkpoints reading spans see no difference.
func TestVectorizedTraceParity(t *testing.T) {
	cat := buildParallelCatalog(t)
	for _, q := range vectorizedQueries {
		run := func(vec bool) string {
			root := parallelPlanFor(t, cat, q)
			if vec {
				plan.MarkVectorized(root)
			}
			ctx := NewContext()
			ctx.Vec = vec
			ctx.Trace = obs.NewTrace(ctx.Clock)
			if _, err := Run(root, ctx); err != nil {
				t.Fatalf("%q vec=%v: %v", q, vec, err)
			}
			out := ""
			for _, r := range ctx.Trace.Roots() {
				out += spansOf(r, 0)
			}
			return out
		}
		if row, vec := run(false), run(true); row != vec {
			t.Errorf("%q: traced spans diverge\nrow:\n%svec:\n%s", q, row, vec)
		}
	}
}

// TestVectorizedLEOFeedback: the batch wrappers must fire the per-node
// feedback hook with the same cardinalities as the row path.
func TestVectorizedLEOFeedback(t *testing.T) {
	cat := buildParallelCatalog(t)
	q := `SELECT pa.v, pb.v FROM pa, pb WHERE pa.k = pb.k`
	run := func(vec bool) map[string]float64 {
		root := parallelPlanFor(t, cat, q)
		if vec {
			plan.MarkVectorized(root)
		}
		ctx := NewContext()
		ctx.Vec = vec
		got := map[string]float64{}
		ctx.OnActual = func(n plan.Node, actual float64) { got[n.Label()] = actual }
		if _, err := Run(root, ctx); err != nil {
			t.Fatal(err)
		}
		return got
	}
	row, vec := run(false), run(true)
	if len(vec) != len(row) {
		t.Fatalf("feedback fired for %d nodes vectorized, %d row-path", len(vec), len(row))
	}
	for k, v := range row {
		if vec[k] != v {
			t.Errorf("node %s: feedback %v vectorized vs %v row-path", k, vec[k], v)
		}
	}
}

// TestMarkVectorized checks the marking policy: subtrees under LIMIT stay
// unmarked (batch read-ahead would break cost parity on early stop), full
// materializers like ORDER BY reset the block, and marking is idempotent.
func TestMarkVectorized(t *testing.T) {
	cat := buildParallelCatalog(t)
	limited := parallelPlanFor(t, cat, `SELECT pa.v FROM pa WHERE pa.v < 600 LIMIT 10`)
	if got := plan.MarkVectorized(limited); got != 0 {
		t.Errorf("MarkVectorized under LIMIT marked %d nodes, want 0", got)
	}
	sorted := parallelPlanFor(t, cat, `SELECT pa.v FROM pa WHERE pa.v < 600 ORDER BY pa.v`)
	first := plan.MarkVectorized(sorted)
	second := plan.MarkVectorized(sorted)
	if first == 0 {
		t.Error("MarkVectorized below ORDER BY marked nothing")
	}
	if first != second {
		t.Errorf("MarkVectorized not idempotent: first=%d second=%d", first, second)
	}
	for _, q := range vectorizedQueries {
		if got := plan.MarkVectorized(parallelPlanFor(t, cat, q)); got == 0 {
			t.Errorf("%q: MarkVectorized marked nothing", q)
		}
	}
}
