package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/cost_residuals.golden from the costs measured now")

// costResidualExceptions are the statements whose residual at an unlimited
// budget without runtime filters may exceed 5%, each for a reason DESIGN.md
// (§ One cardinality seam) gives.
var costResidualExceptions = map[string]string{
	"order-lines": "IndexNLJoin prices fetches per probe from the inner's NDV (4), the probed key has 5 matches",
}

// TestCostAtTrueCardinalities prices the executed plan of each of the
// benchmark's statements at its own actuals: a fresh opt.Cards takes every
// keyed node's actual rows, and the statement is optimized again under it. Per
// cell — heap or columnar × runtime filters off or on × an unlimited or a
// 64-row budget — testdata/cost_residuals.golden pins the estimate, the
// executed units, the units at actuals, the residual (units at actuals ÷
// executed − 1) and whether the plan at actuals is the executed one; -update
// rewrites it. At an unlimited budget without runtime filters every plan at
// actuals is the executed plan and every residual is within 5% but for
// costResidualExceptions. Cells with runtime filters on are pinned, not
// bounded: a scan's actual counts the rows the filter left, while the
// estimate credits the filter apart.
func TestCostAtTrueCardinalities(t *testing.T) {
	const path = "testdata/cost_residuals.golden"
	cat := benchTPCH(t)
	axes := []axis{
		{"columnar", []float64{0, 1}, func(k *core.Config, v float64) { k.Columnar = v == 1 }},
		{"rf", []float64{0, 1}, func(k *core.Config, v float64) { k.RuntimeFilters = v == 1 }},
		{"budget", []float64{unlimited, 64}, memSweepBudgets.set},
	}
	var sb strings.Builder
	err := sweep(defaults(), axes, func(k core.Config, at []float64) error {
		for _, s := range benchStatements() {
			r, err := execute(cat, k, s.stmt)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			executed := r.plans[0]
			bq, err := bind(cat, s.sql)
			if err != nil {
				return err
			}
			o := opt.New(cat)
			o.Opt, o.Cards = k.Options, actuals(executed)
			again, err := o.Optimize(bq, s.params)
			if err != nil {
				return fmt.Errorf("%s at actuals: %w", s.name, err)
			}
			core.MarkPlan(o, k, again)
			units, priced := r.cost(), again.Props().EstCost
			residual := priced/units - 1
			samePlan := plan.PlanSignature(again) == plan.PlanSignature(executed)
			budget := "inf"
			if k.MemBudgetRows == 64 {
				budget = "64"
			}
			cell := fmt.Sprintf("%s columnar=%v rf=%v budget=%s", s.name, k.Columnar, k.RuntimeFilters, budget)
			fmt.Fprintf(&sb, "%-47s est=%8.2f executed=%8.2f at_actuals=%8.2f residual=%+6.1f%% same_plan=%v\n",
				cell, executed.Props().EstCost, units, priced, 100*residual, samePlan)
			if k.RuntimeFilters || k.MemBudgetRows != unlimited {
				continue
			}
			if !samePlan {
				t.Errorf("%s: at its actuals the optimizer picks\n%s\nnot the executed\n%s", cell, plan.Explain(again), plan.Explain(executed))
			}
			if _, ok := costResidualExceptions[s.name]; !ok && math.Abs(residual) > 0.05 {
				t.Errorf("%s: priced at its actuals %.2f units, executed %.2f (%+.1f%%)", cell, priced, units, 100*residual)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
		t.Errorf("cost residuals moved (go test ./internal/experiments -run TestCostAtTrueCardinalities -update accepts them):\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// actuals fills a fresh table with the actual rows of every keyed node of an
// executed plan.
func actuals(root plan.Node) *opt.Cards {
	cards := &opt.Cards{}
	plan.Walk(root, func(n plan.Node) {
		if p := n.Props(); p.Signature != "" && p.ActualRows() >= 0 {
			cards.SetRows(p.Signature, p.ActualRows())
		}
	})
	return cards
}

// benchTPCH is the catalog the benchmark serves: TPC-H-lite at its scale 8
// with its three indexes, analyzed after they exist, and a columnar snapshot
// of every table for the cells that admit ColScan.
func benchTPCH(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
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
	for _, tb := range cat.Tables() {
		cat.BuildColumnar(tb, storage.DefaultColBlock)
	}
	return cat
}

type namedStmt struct {
	name string
	stmt
}

// benchStatements are the statements the benchmark's analytic and lookup
// workloads send, as internal/opt's plan goldens pin them.
func benchStatements() []namedStmt {
	q := workload.TPCHQueries()
	key := []types.Value{types.Int(7)}
	return []namedStmt{
		{"Q1", stmt{sql: q["Q1"]}}, {"Q3", stmt{sql: q["Q3"]}}, {"Q5", stmt{sql: q["Q5"]}}, {"Q6", stmt{sql: q["Q6"]}}, {"Q10", stmt{sql: q["Q10"]}},
		{"order-by-key", stmt{sql: `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`, params: key}},
		{"cust-nation", stmt{sql: `SELECT customer.c_custkey, customer.c_mktsegment, customer.c_acctbal, nation.n_name
			FROM customer, nation
			WHERE customer.c_nationkey = nation.n_nationkey AND customer.c_custkey = ?`, params: key}},
		{"order-lines", stmt{sql: `SELECT orders.o_orderkey, lineitem.l_quantity, lineitem.l_extendedprice, customer.c_custkey, nation.n_name
			FROM orders, lineitem, customer, nation
			WHERE lineitem.l_orderkey = orders.o_orderkey AND orders.o_custkey = customer.c_custkey
			AND customer.c_nationkey = nation.n_nationkey AND orders.o_orderkey = ?`, params: key}},
	}
}
