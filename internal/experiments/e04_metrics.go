package experiments

import (
	"fmt"
	"slices"

	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/robustness"
	"rqp/internal/workload"
)

// E4RiskMetrics implements the Haritsa/Nica breakout's optimizer risk
// metrics on a correlated star query:
//
//	Metric1 — Σ over the chosen plan's operators of |est−actual|/actual;
//	Metric2 — the same sum over every enumerated plan (executed by force);
//	Metric3 — |RunTimeOpt − RunTimeBest| / RunTimeBest, where RunTimeOpt is
//	          the best runtime among enumerated plans and RunTimeBest the
//	          runtime of the optimizer's choice.
func E4RiskMetrics(scale float64) (*Report, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(10000, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	query := `SELECT dim1.cat, COUNT(*) FROM fact, dim1, dim2
		WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id
		AND fact.attr = 3 AND fact.pseudo = 9
		GROUP BY dim1.cat`
	chosen, err := execute(cat, defaults(), sqls(query)...)
	if err != nil {
		return nil, err
	}
	chosenTime := chosen.cost()
	m1 := robustness.Metric1(chosen.plans[0])

	bq, err := bind(cat, query)
	if err != nil {
		return nil, err
	}
	plans, err := opt.New(cat).EnumerateFullPlans(bq, nil, 24)
	if err != nil {
		return nil, err
	}
	var roots []plan.Node
	var runtimes []float64
	for _, p := range plans {
		run, err := execute(cat, defaults(), stmt{root: p.Root})
		if err != nil {
			return nil, fmt.Errorf("E4 forced plan: %w", err)
		}
		roots = append(roots, p.Root)
		runtimes = append(runtimes, run.cost())
	}
	m2 := robustness.Metric2(roots)
	m3 := robustness.Metric3(chosenTime, runtimes)

	r := newReport("E4", "optimizer risk metrics Metric1/2/3 (Nica et al.)")
	r.Printf("query: correlated star join (attr & pseudo redundant)")
	r.Printf("enumerated plans forced & timed: %d", len(plans))
	r.Printf("Metric1 (chosen plan card error sum)      = %.3f", m1)
	r.Printf("Metric2 (all enumerated plans error sum)  = %.3f", m2)
	r.Printf("Metric3 (|RunTimeOpt-RunTimeBest|/Best)   = %.3f", m3)
	r.Printf("chosen runtime=%.1f best enumerated=%.1f", chosenTime, slices.Min(runtimes))
	r.Set("metric1", m1)
	r.Set("metric2", m2)
	r.Set("metric3", m3)
	r.Set("plans", float64(len(plans)))
	return r, nil
}

// E6CardErrGeomean computes Sattler et al.'s C(Q): the geometric mean of
// top-level cardinality errors over a query set (single-table filters on
// TPC-H-lite), with the q-error's max and geometric mean, for the classic
// estimator: each query's scan estimate against its actual rows, one run
// each and no feedback.
func E6CardErrGeomean(scale float64) (*Report, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 4})
	if err != nil {
		return nil, err
	}
	queries := []string{
		"SELECT COUNT(*) FROM lineitem WHERE l_quantity < 24",
		"SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE(8400) AND l_shipdate < DATE(8800)",
		"SELECT COUNT(*) FROM orders WHERE o_totalprice > 20000",
		"SELECT COUNT(*) FROM customer WHERE c_mktsegment = 'BUILDING'",
		"SELECT COUNT(*) FROM part WHERE p_size BETWEEN 10 AND 20",
		"SELECT COUNT(*) FROM supplier WHERE s_acctbal >= 5000",
	}
	var est, act []float64
	for _, q := range queries {
		run, err := execute(cat, defaults(), sqls(q)...)
		if err != nil {
			return nil, err
		}
		// Top-level cardinality = the scan feeding the aggregate.
		plan.Walk(run.plans[0], func(n plan.Node) {
			switch n.(type) {
			case *plan.ScanNode, *plan.IndexScanNode:
				est = append(est, n.Props().EstRows)
				act = append(act, n.Props().ActualRows())
			}
		})
	}
	cq := robustness.CQ(est, act)
	maxQ, geoQ := robustness.QErrorSummary(est, act)
	r := newReport("E6", "C(Q) geometric-mean cardinality error + q-error")
	for i := range est {
		r.Printf("q%d est=%.0f actual=%.0f", i, est[i], act[i])
	}
	r.Printf("C(Q) geomean relative error = %.4f", cq)
	r.Printf("q-error: max=%.2f geomean=%.2f", maxQ, geoQ)
	r.Set("cq", cq)
	r.Set("qerr_max", maxQ)
	r.Set("qerr_geo", geoQ)
	return r, nil
}
