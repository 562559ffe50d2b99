package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// TestOneRunner holds the package to one runner: no experiment file but
// runner.go parses, binds, optimizes or executes a statement, or formats
// rows with the 6-digit float canon; only E29 and E31, which measure an
// engine (a server under load, the plan cache), attach one. No file,
// runner.go included, builds a POP or Rio executor: policies run through the
// engine's ExecPolicy.
func TestOneRunner(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{"sql.Parse": true, "plan.Bind": true, "exec.Run": true, "exec.Drain": true, "core.Attach": true}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		engine := strings.HasPrefix(name, "e29_") || strings.HasPrefix(name, "e31_")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if sel, ok := n.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "adaptive" && (sel.Sel.Name == "Progressive" || sel.Sel.Name == "Rio") {
						t.Errorf("%s: %s builds an adaptive.%s; set core.Config.Policy", fset.Position(n.Pos()), name, sel.Sel.Name)
					}
				}
			case *ast.CallExpr:
				if name == "runner.go" {
					break
				}
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				call := sel.Sel.Name
				if x, ok := sel.X.(*ast.Ident); ok {
					call = x.Name + "." + call
				}
				if sel.Sel.Name == "Optimize" || banned[call] && !(engine && call == "core.Attach") {
					t.Errorf("%s: %s calls %s; run statements through execute", fset.Position(n.Pos()), name, call)
				}
			case *ast.BasicLit:
				if name != "runner.go" && n.Kind == token.STRING && strings.Contains(n.Value, "%.6g") {
					t.Errorf("%s: %s formats rows with the float canon; compare them with same", fset.Position(n.Pos()), name)
				}
			}
			return true
		})
	}
}

// TestRunnerRunsEnginePolicies: on E18's trapped star workload, execute
// runs each of the engine's policies as core.Attach(cat, k).Exec does — the
// same cost units, row hash and re-optimizations, POP's charges included —
// and a field of k it does not run under is an error, not ignored.
func TestRunnerRunsEnginePolicies(t *testing.T) {
	sc := workload.DefaultStar()
	sc.FactRows = 7500
	cat, err := workload.BuildStar(sc)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.StarWorkload(sc, 12, 0.5, 77)
	for _, p := range []core.ExecPolicy{core.PolicyClassic, core.PolicyPOP, core.PolicyPOPEager, core.PolicyRio} {
		k := defaults()
		k.Policy = p
		eng := core.Attach(cat, k)
		reopts := 0
		for i, q := range queries {
			got, err := execute(cat, k, sqls(q.SQL)...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Exec(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if got.cost() != want.Cost || got.hash != types.HashRows(want.Rows) || got.reopts != want.Reopts {
				t.Errorf("%s q%d: runner %.6f units, hash %x, %d reopts; engine %.6f, %x, %d",
					p, i, got.cost(), got.hash, got.reopts, want.Cost, types.HashRows(want.Rows), want.Reopts)
			}
			reopts += got.reopts
		}
		if pop := p == core.PolicyPOP || p == core.PolicyPOPEager; pop && reopts == 0 {
			t.Errorf("%s re-optimized no query: its charge is not compared", p)
		}
	}
	k := defaults()
	k.LEO = true
	if _, err := execute(cat, k, sqls(queries[0].SQL)...); err == nil || !strings.Contains(err.Error(), "LEO") {
		t.Errorf("execute under LEO: error %v, want one naming LEO", err)
	}
}

// TestSameHashesRowsExactly: a cell that neither spilled nor aggregated at
// DOP > 1 matches only bit for bit, so one float's last bit fails it; a
// spilled cell may match at 6 digits, and is counted. Its runs also hold the
// workspace budget to one field: opt.MemBudgetRows sizes the run's broker and
// prices its plans — unlimited under defaults(), and at 16 rows the run
// spills and executes what an optimizer told 16 rows plans (Q10 joins nation
// by nested loops there, by hash unlimited).
func TestSameHashesRowsExactly(t *testing.T) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.125, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.TPCHQueries()
	suite := sqls(queries["Q1"], queries["Q3"], queries["Q10"])
	bend := func(r *run) *run {
		b := *r
		b.rows = append([]types.Row(nil), r.rows...)
		for i, row := range b.rows {
			for j, v := range row {
				if v.K == types.KindFloat {
					b.rows[i] = row.Clone()
					b.rows[i][j].F = math.Float64frombits(math.Float64bits(v.F) ^ 1)
					b.hash = types.HashRows(b.rows)
					return &b
				}
			}
		}
		t.Fatal("no float in the suite's rows")
		return nil
	}
	plannedAt := func(r *run, budget int) {
		t.Helper()
		o := opt.New(cat)
		o.Opt.MemBudgetRows = budget
		for i, s := range suite {
			bq, err := bind(cat, s.sql)
			if err != nil {
				t.Fatal(err)
			}
			want, err := o.Optimize(bq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plan.PlanSignature(r.plans[i]) != plan.PlanSignature(want) {
				t.Errorf("statement %d ran\n%s\nnot the plan at a %d-row budget\n%s",
					i, plan.Explain(r.plans[i]), budget, plan.Explain(want))
			}
		}
	}
	ref, err := execute(cat, defaults(), suite...)
	if err != nil {
		t.Fatal(err)
	}
	if got := defaults().MemBudgetRows; got != unlimited {
		t.Errorf("defaults() budget %d rows, want unlimited (%d)", got, unlimited)
	}
	plannedAt(ref, unlimited)
	again, err := execute(cat, defaults(), suite...)
	if err != nil {
		t.Fatal(err)
	}
	canon := 0
	if !same(&canon, ref, again) || canon != 0 {
		t.Fatalf("two unspilled DOP-1 runs differ (float canon cells %d)", canon)
	}
	if same(&canon, ref, bend(again)) {
		t.Error("a flipped float bit in an unspilled cell still counts as exact")
	}

	k := defaults()
	memSweepBudgets.set(&k, 16)
	spilled, err := execute(cat, k, suite...)
	if err != nil {
		t.Fatal(err)
	}
	if parts, _, _, _, _ := spilled.ctx.Spill.Snapshot(); parts == 0 {
		t.Fatal("the 16-row budget did not spill")
	}
	plannedAt(spilled, 16)
	if !same(&canon, ref, bend(spilled)) || canon != 1 {
		t.Errorf("a spilled cell off in the last float bit: exact=false or canon cells %d, want one", canon)
	}
}

// TestE29WireCheckComparesWholeResults bends the last row of one reference
// result, a row that is not the result's least: the wire check must compare
// whole results, not one row of each.
func TestE29WireCheckComparesWholeResults(t *testing.T) {
	sc, queries := serverSweepWorkload(0.25)
	cat, err := workload.BuildStar(sc)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.Attach(cat, core.DefaultConfig())
	refs := make([]uint64, len(queries))
	bent := -1
	for i, q := range queries {
		res, err := eng.Exec(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows
		if n := len(rows); bent < 0 && n > 1 && rows[n-1].String() > rows[0].String() {
			last := rows[len(rows)-1].Clone()
			last[0] = types.Int(math.MaxInt64) // a key no row holds
			rows, bent = append(rows[:len(rows)-1:len(rows)-1], last), i
		}
		refs[i] = types.HashRows(rows)
	}
	if bent < 0 {
		t.Fatal("no reference has two rows to bend")
	}
	p, err := serverSweepRun(sc, queries, refs, 1, 4, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	if p.ResultExact {
		t.Errorf("q%d's reference lost its last row, yet every wire result matched", bent)
	}
}
