// Robustness metrics walkthrough: compute the Dagstuhl metrics — P(q),
// S(Q), C(Q), q-error and Metric1 — for a parameterized query family on a
// live engine, comparing the classic and robust-percentile optimizers.
package main

import (
	"fmt"
	"log"
	"math"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/robustness"
	"rqp/internal/sql"
	"rqp/internal/types"
)

func main() {
	eng := core.Open(core.DefaultConfig())
	eng.MustExec("CREATE TABLE m (id int, x int, y int)")
	for i := 0; i < 20000; i += 50 {
		stmt := "INSERT INTO m VALUES "
		for j := i; j < i+50; j++ {
			if j > i {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, %d, %d)", j, j%5000, j%37)
		}
		eng.MustExec(stmt)
	}
	eng.MustExec("CREATE INDEX m_x ON m (x)")
	eng.MustExec("ANALYZE m")

	classic := opt.New(eng.Cat)
	robustO := opt.New(eng.Cat)
	robustO.Opt.Mode = opt.Percentile
	robustO.Opt.PercentileP = 0.95

	family := "SELECT COUNT(*) FROM m WHERE x >= 0 AND x <= ?"
	st, err := sql.Parse(family)
	if err != nil {
		log.Fatal(err)
	}

	run := func(o *opt.Optimizer, p int64) (cost float64, est, act float64) {
		bq, err := plan.Bind(st.(*sql.SelectStmt), eng.Cat)
		if err != nil {
			log.Fatal(err)
		}
		root, err := o.Optimize(bq, []types.Value{types.Int(p)})
		if err != nil {
			log.Fatal(err)
		}
		ctx := exec.NewContext()
		ctx.Params = []types.Value{types.Int(p)}
		if _, err := exec.Run(root, ctx); err != nil {
			log.Fatal(err)
		}
		plan.Walk(root, func(n plan.Node) {
			switch n.(type) {
			case *plan.ScanNode, *plan.IndexScanNode:
				est, act = n.Props().EstRows, n.Props().ActualRows()
			}
		})
		return ctx.Clock.Units(), est, act
	}

	var perfClassic, perfRobust []float64
	var ests, acts []float64
	fmt.Printf("%8s %10s %10s %10s\n", "param", "classic", "robust", "optimal")
	for i := 1; i <= 16; i++ {
		f := float64(i) / 16
		p := int64(5000 * f * f * f)
		if p < 1 {
			p = 1
		}
		cC, e, a := run(classic, p)
		cR, _, _ := run(robustO, p)
		optimal := math.Min(cC, cR) // best observed stands in for O(q)
		perfClassic = append(perfClassic, robustness.PerfP(optimal, cC))
		perfRobust = append(perfRobust, robustness.PerfP(optimal, cR))
		ests = append(ests, e)
		acts = append(acts, a)
		if i%4 == 0 || i == 1 {
			fmt.Printf("%8d %10.1f %10.1f %10.1f\n", p, cC, cR, optimal)
		}
	}
	fmt.Printf("\nS(Q) smoothness:   classic=%.3f robust=%.3f (lower = smoother)\n",
		robustness.Smoothness(perfClassic), robustness.Smoothness(perfRobust))
	fmt.Printf("C(Q) card error:   %.4f (geometric mean of relative errors)\n",
		robustness.CQ(ests, acts))
	maxQ, geoQ := robustness.QErrorSummary(ests, acts)
	fmt.Printf("q-error:           max=%.2f geomean=%.2f\n", maxQ, geoQ)
}
