package exec

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Failure injection: runtime errors inside operators must surface as clean
// errors through Run — never panics, never partial silent results.

func failureDB(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb, _ := cat.CreateTable("f", types.Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	})
	for i := 0; i < 50; i++ {
		cat.Insert(nil, tb, types.Row{types.Int(int64(i)), types.Str("x")})
	}
	cat.AnalyzeTable(tb, 4)
	return cat
}

func buildAndRun(t *testing.T, cat *catalog.Catalog, q string, params ...types.Value) error {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		return err
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		return err
	}
	o := opt.New(cat)
	root, err := o.Optimize(bq, params)
	if err != nil {
		return err
	}
	ctx := NewContext()
	ctx.Params = params
	_, err = Run(root, ctx)
	return err
}

func TestArithmeticOnStringsSurfacesError(t *testing.T) {
	cat := failureDB(t)
	err := buildAndRun(t, cat, "SELECT s + 1 FROM f")
	if err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Errorf("expected non-numeric arithmetic error, got %v", err)
	}
	// Inside a filter too.
	err = buildAndRun(t, cat, "SELECT a FROM f WHERE s * 2 > 1")
	if err == nil {
		t.Error("filter-side arithmetic on strings should error")
	}
}

func TestUnboundParameterSurfacesError(t *testing.T) {
	cat := failureDB(t)
	err := buildAndRun(t, cat, "SELECT a FROM f WHERE a = ?")
	if err == nil || !strings.Contains(err.Error(), "parameter") {
		t.Errorf("expected unbound-parameter error, got %v", err)
	}
}

func TestErrorInsideJoinPipeline(t *testing.T) {
	cat := failureDB(t)
	tb2, _ := cat.CreateTable("g", types.Schema{{Name: "a", Kind: types.KindInt}})
	for i := 0; i < 10; i++ {
		cat.Insert(nil, tb2, types.Row{types.Int(int64(i))})
	}
	cat.AnalyzeTable(tb2, 4)
	err := buildAndRun(t, cat, "SELECT f.a FROM f, g WHERE f.a = g.a AND f.s - g.a > 0")
	if err == nil {
		t.Error("residual-predicate failure inside a join should surface")
	}
}

// TestSpillPipelineErrorReleasesEverything: an error raised inside a morsel
// pipeline — in the fused aggregate's argument, in a join residual — must
// leave no workspace grant and no temp run behind, whether the build sat in
// memory or spilled, at one worker and at two. More workers do all their work
// in Open, so this also holds the root drain to closing an operator whose
// Open failed.
func TestSpillPipelineErrorReleasesEverything(t *testing.T) {
	cat := catalog.New()
	f, _ := cat.CreateTable("f", types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}})
	for i := 0; i < 2000; i++ {
		cat.Insert(nil, f, types.Row{types.Int(int64(i % 500)), types.Str("x")})
	}
	g, _ := cat.CreateTable("g", types.Schema{{Name: "a", Kind: types.KindInt}})
	for i := 0; i < 500; i++ {
		cat.Insert(nil, g, types.Row{types.Int(int64(i))})
	}
	cat.AnalyzeTable(f, 4)
	cat.AnalyzeTable(g, 4)
	cat.BuildColumnar(f, 256)
	cat.BuildColumnar(g, 256)
	for _, q := range []string{
		"SELECT SUM(f.s * 2) FROM f, g WHERE f.a = g.a",
		"SELECT f.a FROM f, g WHERE f.a = g.a AND f.s - g.a > 0",
	} {
		for _, columnar := range []bool{false, true} {
			for _, dop := range []int{1, 2} {
				for _, budget := range []int{1 << 30, 64} {
					root := chainPlan(t, cat, q, columnar, false)
					ctx := NewContext()
					ctx.DOP = dop
					ctx.Mem = NewMemBroker(budget)
					pagesBefore := storage.OpenTempPages()
					_, err := Run(root, ctx)
					cell := fmt.Sprintf("%q columnar=%v dop=%d budget=%d", q, columnar, dop, budget)
					if err == nil || !strings.Contains(err.Error(), "non-numeric") {
						t.Fatalf("%s: want the non-numeric error, got %v", cell, err)
					}
					if in := ctx.Mem.InUse(); in != 0 {
						t.Errorf("%s: %d workspace rows still granted after the error", cell, in)
					}
					if open := storage.OpenTempPages() - pagesBefore; open != 0 {
						t.Errorf("%s: %d temp-run pages left open after the error", cell, open)
					}
					if sp, _, _, _, _ := ctx.Spill.Snapshot(); (sp > 0) != (budget == 64) {
						t.Errorf("%s: %d partitions spilled", cell, sp)
					}
				}
			}
		}
	}
}

// TestNestedBuildErrorReleasesEverything: an error raised in the middle of a
// build that is itself a join — here in the residual of g ⋈ h, which f probes
// — surfaces while the join above already holds its own build (k: granted, or
// spilled to temp runs, before the nested build opens). One worker and two
// alike must hand every grant back and close every run.
func TestNestedBuildErrorReleasesEverything(t *testing.T) {
	cat := catalog.New()
	mk := func(name string, schema types.Schema, rows int, row func(i int) types.Row) {
		tb, err := cat.CreateTable(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			cat.Insert(nil, tb, row(i))
		}
		cat.AnalyzeTable(tb, 4)
		cat.BuildColumnar(tb, 256)
	}
	intCol := func(name string) types.Column { return types.Column{Name: name, Kind: types.KindInt} }
	mk("f", types.Schema{intCol("a"), intCol("k")}, 4000, func(i int) types.Row {
		return types.Row{types.Int(int64(i % 500)), types.Int(int64(i % 300))}
	})
	mk("g", types.Schema{intCol("a"), intCol("b"), {Name: "s", Kind: types.KindString}}, 500, func(i int) types.Row {
		return types.Row{types.Int(int64(i)), types.Int(int64(i % 100)), types.Str("x")}
	})
	mk("h", types.Schema{intCol("b")}, 100, func(i int) types.Row { return types.Row{types.Int(int64(i))} })
	mk("k", types.Schema{intCol("k")}, 300, func(i int) types.Row { return types.Row{types.Int(int64(i))} })
	const q = "SELECT f.a FROM f, g, h, k WHERE f.a = g.a AND g.b = h.b AND f.k = k.k AND g.s - h.b > 0"
	for _, columnar := range []bool{false, true} {
		for _, dop := range []int{1, 2} {
			for _, budget := range []int{1 << 30, 64} {
				root := chainPlan(t, cat, q, columnar, false)
				// The failing residual must sit in a build under a join that
				// builds first.
				if nested := nestedBuild(root); nested == nil || nested == chainOf(root)[0] || nested.Residual != nil {
					t.Fatalf("want f probing a build of g ⋈ h (with the residual) under a join building on k:\n%s", plan.Explain(root))
				}
				ctx := NewContext()
				ctx.DOP = dop
				ctx.Mem = NewMemBroker(budget)
				var grants int
				ctx.Mem.OnEvent = func(kind string, _, _, _ int) {
					if kind == "grant" {
						grants++
					}
				}
				pagesBefore := storage.OpenTempPages()
				_, err := Run(root, ctx)
				cell := fmt.Sprintf("columnar=%v dop=%d budget=%d", columnar, dop, budget)
				if err == nil || !strings.Contains(err.Error(), "non-numeric") {
					t.Fatalf("%s: want the non-numeric error, got %v", cell, err)
				}
				if grants < 2 {
					t.Errorf("%s: %d grants before the error, want the outer build's and the nested join's own", cell, grants)
				}
				if in := ctx.Mem.InUse(); in != 0 {
					t.Errorf("%s: %d workspace rows still granted after the error", cell, in)
				}
				if open := storage.OpenTempPages() - pagesBefore; open != 0 {
					t.Errorf("%s: %d temp-run pages left open after the error", cell, open)
				}
				if sp, _, _, _, _ := ctx.Spill.Snapshot(); (sp > 0) != (budget == 64) {
					t.Errorf("%s: %d partitions spilled", cell, sp)
				}
			}
		}
	}
}

// TestSortInputErrorReleasesEverything: a sort whose input fails after some
// of its runs spilled must hand back its grants and close those runs. At one
// worker the filter fails once the first thousand rows (which its OR admits
// unevaluated) are in 64-row runs; at two the gather below fails in Open,
// before the sort reads a row.
func TestSortInputErrorReleasesEverything(t *testing.T) {
	cat := catalog.New()
	f, _ := cat.CreateTable("f", types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "s", Kind: types.KindString}})
	for i := 0; i < 2000; i++ {
		cat.Insert(nil, f, types.Row{types.Int(int64(i)), types.Str("x")})
	}
	cat.AnalyzeTable(f, 4)
	root := parallelPlanFor(t, cat, "SELECT a FROM f WHERE a < 1000 OR s * 2 > 1 ORDER BY a")
	sorts := 0
	plan.Walk(root, func(n plan.Node) {
		if _, ok := n.(*plan.SortNode); ok {
			sorts++
		}
	})
	if sorts != 1 {
		t.Fatalf("want one sort:\n%s", plan.Explain(root))
	}
	for _, dop := range []int{1, 2} {
		ctx := NewContext()
		ctx.DOP = dop
		ctx.Mem = NewMemBroker(64)
		pagesBefore := storage.OpenTempPages()
		_, err := Run(root, ctx)
		if err == nil || !strings.Contains(err.Error(), "non-numeric") {
			t.Fatalf("dop=%d: want the non-numeric error, got %v", dop, err)
		}
		if in := ctx.Mem.InUse(); in != 0 {
			t.Errorf("dop=%d: %d workspace rows still granted after the error", dop, in)
		}
		if open := storage.OpenTempPages() - pagesBefore; open != 0 {
			t.Errorf("dop=%d: %d temp-run pages left open after the error", dop, open)
		}
	}
}

func TestErrorInsideAggregation(t *testing.T) {
	cat := failureDB(t)
	err := buildAndRun(t, cat, "SELECT SUM(s * 2) FROM f")
	if err == nil {
		t.Error("aggregate-argument failure should surface")
	}
}

// TestConcurrentReadOnlyQueries runs many queries against one catalog from
// parallel goroutines; with -race this verifies reader-side thread safety
// of heap, index, stats and clock.
func TestConcurrentReadOnlyQueries(t *testing.T) {
	cat := failureDB(t)
	queries := []string{
		"SELECT COUNT(*) FROM f WHERE a < 25",
		"SELECT a FROM f WHERE a BETWEEN 10 AND 20",
		"SELECT s, COUNT(*) FROM f GROUP BY s",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				q := queries[(worker+rep)%len(queries)]
				st, err := sql.Parse(q)
				if err != nil {
					errs <- err
					return
				}
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					errs <- err
					return
				}
				o := opt.New(cat)
				root, err := o.Optimize(bq, nil)
				if err != nil {
					errs <- err
					return
				}
				if _, err := Run(root, NewContext()); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSharedClockUnderConcurrency runs concurrent queries charging one
// clock — the mixed-workload accounting pattern.
func TestSharedClockUnderConcurrency(t *testing.T) {
	cat := failureDB(t)
	ctxProto := NewContext()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, _ := sql.Parse("SELECT COUNT(*) FROM f")
			bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
			o := opt.New(cat)
			root, err := o.Optimize(bq, nil)
			if err != nil {
				return
			}
			ctx := &Context{Clock: ctxProto.Clock, Mem: ctxProto.Mem}
			Run(root, ctx)
		}()
	}
	wg.Wait()
	if ctxProto.Clock.Units() <= 0 {
		t.Error("shared clock should have accumulated cost")
	}
}
