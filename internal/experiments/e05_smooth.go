package experiments

import (
	"math"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/robustness"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// smoothTable builds a single indexed table for the selectivity sweep.
func smoothTable(rows int) (*catalog.Catalog, error) {
	cat := catalog.New()
	_, err := addTable(cat, "sweep", intCols("id", "x", "pad"), rows, 32, func(i int) types.Row {
		return workload.IntRow(int64(i), int64(i%10000), int64(i*7%997))
	})
	if err != nil {
		return nil, err
	}
	_, err = cat.CreateIndex(nil, "sweep", "sweep_x", []string{"x"}, false)
	return cat, err
}

// E5Smoothness implements Sattler et al.'s performance/smoothness metrics
// over the parameterized range family q(p) = COUNT(*) WHERE x BETWEEN 0 AND
// p, sweeping selectivity 0→1. For every point, the optimal time O(q) is
// the better of the forced index plan and the forced scan plan; P(q) =
// |O(q) − E(q)|. S(Q) is the coefficient of variation of P. Three systems
// are compared: the classic optimizer, a deliberately fragile
// index-always policy, and the robust percentile optimizer. A plan diagram
// with anorexic reduction locates the crossover.
func E5Smoothness(scale float64) (*Report, error) {
	rows := scaleInt(30000, scale)
	cat, err := smoothTable(rows)
	if err != nil {
		return nil, err
	}
	steps := 20
	r := newReport("E5", "selectivity sweep: P(q), smoothness S(Q), plan crossover")

	const query = "SELECT COUNT(*) FROM sweep WHERE x >= 0 AND x <= ?"

	// The fragile index-always policy pins access paths to the index (the
	// one a robust system must avoid at high selectivity); the scan-only
	// one forbids it.
	classic, indexOnly, robustK, scanOnly := defaults(), defaults(), defaults(), defaults()
	indexOnly.IndexPaths = opt.IndexAlways
	robustK.Mode, robustK.PercentileP = opt.Percentile, 0.95
	scanOnly.IndexPaths = opt.IndexNever

	// Cubic spacing resolves the low-selectivity region where the
	// index/scan crossover lives.
	sweepPoint := func(i int) int64 {
		f := float64(i) / float64(steps)
		p := int64(10000 * f * f * f)
		if p < 1 {
			p = 1
		}
		return p
	}
	var perfClassic, perfIndex, perfRobust []float64
	for i := 1; i <= steps; i++ {
		p := sweepPoint(i)
		var t [4]float64
		for i, k := range []core.Config{scanOnly, classic, robustK, indexOnly} {
			run, err := execute(cat, k, stmt{sql: query, params: []types.Value{types.Int(p)}})
			if err != nil {
				return nil, err
			}
			t[i] = run.cost()
		}
		tScanPlan, tClassic, tRobust, tIndex := t[0], t[1], t[2], t[3]
		optimal := math.Min(tScanPlan, tIndex)
		perfClassic = append(perfClassic, robustness.PerfP(optimal, tClassic))
		perfIndex = append(perfIndex, robustness.PerfP(optimal, tIndex))
		perfRobust = append(perfRobust, robustness.PerfP(optimal, tRobust))
		if i%5 == 0 || i == 1 {
			r.Printf("sel=%.4f scan=%.1f index=%.1f classic=%.1f robust=%.1f",
				float64(p)/10000, tScanPlan, tIndex, tClassic, tRobust)
		}
	}
	sClassic := robustness.Smoothness(perfClassic)
	sIndex := robustness.Smoothness(perfIndex)
	sRobust := robustness.Smoothness(perfRobust)
	r.Printf("S(Q) classic=%.3f index-always=%.3f robust=%.3f", sClassic, sIndex, sRobust)

	// Plan diagram over the same parameter axis, plus anorexic reduction.
	bq, err := bind(cat, query)
	if err != nil {
		return nil, err
	}
	var xs []types.Value
	for i := 1; i <= steps; i++ {
		xs = append(xs, types.Int(sweepPoint(i)))
	}
	diag, err := opt.New(cat).BuildPlanDiagram(bq, xs, nil)
	if err != nil {
		return nil, err
	}
	reduced := diag.Reduce(0.2)
	r.Printf("plan diagram: %d plans -> anorexic(0.2): %d plans", diag.NumPlans(), reduced.NumPlans())
	r.Printf("diagram: %s", diag.Render())
	r.Set("s_classic", sClassic)
	r.Set("s_index_always", sIndex)
	r.Set("s_robust", sRobust)
	r.Set("diagram_plans", float64(diag.NumPlans()))
	r.Set("anorexic_plans", float64(reduced.NumPlans()))
	return r, nil
}
