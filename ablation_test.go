package rqp

// Ablation benchmarks for the design choices DESIGN.md calls out:
// estimation mode, POP check granularity, anorexic reduction slack, and
// memory grow/shrink. Each sub-benchmark reports the headline effect as a
// custom metric so `go test -bench Ablation` prints the whole trade-off
// table.

import (
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// BenchmarkAblationEstimationMode measures the correlation-trap query cost
// under the three estimation modes (DESIGN.md ablation 1).
func BenchmarkAblationEstimationMode(b *testing.B) {
	cfg := workload.DefaultStar()
	cfg.FactRows = 10000
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fact, _ := cat.Table("fact")
	if err := cat.AnalyzeGroup(fact, []string{"attr", "pseudo"}); err != nil {
		b.Fatal(err)
	}
	query := `SELECT dim1.cat, COUNT(*) FROM fact, dim1
		WHERE fact.d1 = dim1.id AND fact.attr = 37 AND fact.pseudo = 111
		GROUP BY dim1.cat`
	for _, mode := range []struct {
		name string
		m    opt.EstimateMode
	}{
		{"expected", opt.Expected},
		{"percentile95", opt.Percentile},
		{"correlated", opt.Correlated},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				st, _ := sql.Parse(query)
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					b.Fatal(err)
				}
				o := opt.New(cat)
				o.Opt.Mode = mode.m
				o.Opt.PercentileP = 0.95
				root, err := o.Optimize(bq, nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx := exec.NewContext()
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
				cost = ctx.Clock.Units()
			}
			b.ReportMetric(cost, "cost_units")
		})
	}
}

// BenchmarkAblationCheckGranularity compares classic against Checked / Eager
// progressive policies on a mixed workload (DESIGN.md ablation 2): Checked
// should capture most of Eager's benefit at a fraction of the overhead.
func BenchmarkAblationCheckGranularity(b *testing.B) {
	cfg := workload.DefaultStar()
	cfg.FactRows = 10000
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.StarWorkload(cfg, 10, 0.5, 13)
	for _, pol := range []struct {
		name string
		p    core.ExecPolicy
	}{
		{"classic", core.PolicyClassic},
		{"checked", core.PolicyPOP},
		{"eager", core.PolicyPOPEager},
	} {
		b.Run(pol.name, func(b *testing.B) {
			var total float64
			var reopts int
			for i := 0; i < b.N; i++ {
				total, reopts = 0, 0
				for _, q := range queries {
					st, err := sql.Parse(q.SQL)
					if err != nil {
						b.Fatal(err)
					}
					bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
					if err != nil {
						b.Fatal(err)
					}
					cost, n, err := runPolicy(cat, pol.p, bq)
					if err != nil {
						b.Fatal(err)
					}
					total += cost
					reopts += n
				}
			}
			b.ReportMetric(total, "cost_units")
			b.ReportMetric(float64(reopts), "reopts")
		})
	}
}

// BenchmarkAblationAnorexicLambda sweeps the plan-diagram reduction slack
// (DESIGN.md ablation 3) and reports the surviving plan count.
func BenchmarkAblationAnorexicLambda(b *testing.B) {
	cat, diagramQuery := anorexicSetup(b)
	var xs []types.Value
	for v := int64(1); v <= 10000; v += 500 {
		xs = append(xs, types.Int(v))
	}
	for _, lambda := range []float64{0, 0.1, 0.2, 1.0} {
		b.Run(lambdaName(lambda), func(b *testing.B) {
			var plansLeft float64
			for i := 0; i < b.N; i++ {
				o := opt.New(cat)
				st, _ := sql.Parse(diagramQuery)
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					b.Fatal(err)
				}
				d, err := o.BuildPlanDiagram(bq, xs, nil)
				if err != nil {
					b.Fatal(err)
				}
				plansLeft = float64(d.Reduce(lambda).NumPlans())
			}
			b.ReportMetric(plansLeft, "plans")
		})
	}
}

func lambdaName(l float64) string {
	switch l {
	case 0:
		return "lambda0"
	case 0.1:
		return "lambda0.1"
	case 0.2:
		return "lambda0.2"
	default:
		return "lambda1.0"
	}
}

func anorexicSetup(b *testing.B) (*catalog.Catalog, string) {
	b.Helper()
	c, err := buildSweepCatalog(30000)
	if err != nil {
		b.Fatal(err)
	}
	return c, "SELECT COUNT(*) FROM sweep WHERE x >= 0 AND x <= ?"
}

// buildSweepCatalog creates the indexed single-table database the sweep
// ablations run on (mirrors experiments.E5's table).
func buildSweepCatalog(rows int) (*catalog.Catalog, error) {
	cat := catalog.New()
	t, err := cat.CreateTable("sweep", types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "x", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		cat.Insert(nil, t, types.Row{types.Int(int64(i)), types.Int(int64(i % 10000))})
	}
	if _, err := cat.CreateIndex(nil, "sweep", "sweep_x", []string{"x"}, false); err != nil {
		return nil, err
	}
	cat.AnalyzeTable(t, 32)
	return cat, nil
}

// BenchmarkAblationMemoryPolicy compares static large grants against
// broker-driven shrink on a sort-heavy query (DESIGN.md ablation 5).
func BenchmarkAblationMemoryPolicy(b *testing.B) {
	cat, err := buildSweepCatalog(30000)
	if err != nil {
		b.Fatal(err)
	}
	query := "SELECT x FROM sweep ORDER BY x DESC LIMIT 5"
	for _, mem := range []struct {
		name string
		rows int
	}{
		{"ample", 1 << 20},
		{"shrunk", 256},
	} {
		b.Run(mem.name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				st, _ := sql.Parse(query)
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					b.Fatal(err)
				}
				o := opt.New(cat)
				o.Opt.MemBudgetRows = mem.rows
				root, err := o.Optimize(bq, nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx := exec.NewContext()
				ctx.Mem = exec.NewMemBroker(mem.rows)
				if _, err := exec.Run(root, ctx); err != nil {
					b.Fatal(err)
				}
				cost = ctx.Clock.Units()
			}
			b.ReportMetric(cost, "cost_units")
		})
	}
}
