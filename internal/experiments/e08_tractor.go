package experiments

import (
	"fmt"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/robustness"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E8TractorPull implements the Kersten et al. tractor-pulling benchmark:
// the system faces an escalating workload — each level adds a join to the
// chain and increases data skew — until response-time variance within a
// level blows past the threshold. The score is the number of levels pulled.
// Two systems compete: the classic optimizer and the robust percentile
// optimizer.
func E8TractorPull(scale float64) (*Report, error) {
	levels := 7
	rowsPerTable := scaleInt(4000, scale)
	cat, err := buildChain(levels+1, rowsPerTable)
	if err != nil {
		return nil, err
	}
	r := newReport("E8", "tractor pulling: escalating join chain with skew")

	runLevels := func(k core.Config) ([][]float64, error) {
		var all [][]float64
		for lv := 1; lv <= levels; lv++ {
			var times []float64
			for trial := 0; trial < 3; trial++ {
				run, err := execute(cat, k, sqls(chainQuery(lv, int64(trial*3)))...)
				if err != nil {
					return nil, err
				}
				times = append(times, run.cost())
			}
			all = append(all, times)
		}
		return all, nil
	}

	classicLevels, err := runLevels(defaults())
	if err != nil {
		return nil, err
	}
	robustK := defaults()
	robustK.Mode = opt.Percentile
	robustLevels, err := runLevels(robustK)
	if err != nil {
		return nil, err
	}
	const maxCV, maxMean = 1.0, 5e6
	scoreC, detailC := robustness.TractorPull(classicLevels, maxCV, maxMean)
	scoreR, _ := robustness.TractorPull(robustLevels, maxCV, maxMean)
	for _, d := range detailC {
		r.Printf("classic %s", d)
	}
	r.Printf("score: classic=%d robust=%d (of %d levels)", scoreC, scoreR, levels)
	r.Set("classic_score", float64(scoreC))
	r.Set("robust_score", float64(scoreR))
	return r, nil
}

// buildChain creates t1..tn with skewed join keys: ti(k, fk, v) where fk
// joins to t(i+1).k; skew grows with i.
func buildChain(n, rows int) (*catalog.Catalog, error) {
	cat := catalog.New()
	g := workload.NewGen(21)
	for i := 1; i <= n; i++ {
		zip := g.ZipfSeq(uint64(rows), 1.05+0.15*float64(i))
		_, err := addTable(cat, fmt.Sprintf("t%d", i), intCols("k", "fk", "v"), rows, 16, func(j int) types.Row {
			return workload.IntRow(int64(j), zip(), g.Uniform(100))
		})
		if err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// chainQuery joins t1..t(level+1) along fk=k with a shifting filter.
func chainQuery(level int, shift int64) string {
	sel := "SELECT COUNT(*) FROM t1"
	where := fmt.Sprintf(" WHERE t1.v < %d", 30+shift)
	for i := 1; i <= level; i++ {
		sel += fmt.Sprintf(", t%d", i+1)
		where += fmt.Sprintf(" AND t%d.fk = t%d.k", i, i+1)
	}
	return sel + where
}
