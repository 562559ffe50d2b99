package experiments

import (
	"fmt"

	"rqp/internal/core"
	"rqp/internal/robustness"
	"rqp/internal/workload"
)

// popData runs the POP customer-workload reproduction: a star-schema BI
// workload where a fraction of queries carry a fully redundant correlated
// predicate (Lohman's war story), executed once with the classic
// optimize-once plan and once under checked progressive re-optimization.
// Response times are deterministic cost units.
type popData struct {
	ids      []string
	classic  []float64
	pop      []float64
	trapped  []bool
	reopts   int
	nQueries int
}

func runPOPWorkload(scale float64) (*popData, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(cfg.FactRows, scale)
	cfg.DimRows = scaleInt(cfg.DimRows, scale)
	cfg.Dim2Rows = scaleInt(cfg.Dim2Rows, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	n := scaleInt(100, scale)
	queries := workload.StarWorkload(cfg, n, 0.4, 99)
	d := &popData{nQueries: n}
	// The baseline runs the classic plan; the treatment POP with checked
	// re-optimization (re-planning is charged so the overhead is honest).
	kc, kp := defaults(), defaults()
	kp.Policy = core.PolicyPOP
	for i, q := range queries {
		c, err := execute(cat, kc, sqls(q.SQL)...)
		if err != nil {
			return nil, fmt.Errorf("E1 classic: %w", err)
		}
		p, err := execute(cat, kp, sqls(q.SQL)...)
		if err != nil {
			return nil, fmt.Errorf("E1 pop: %w", err)
		}
		d.ids = append(d.ids, fmt.Sprintf("q%02d", i))
		d.classic = append(d.classic, c.cost())
		d.pop = append(d.pop, p.cost())
		d.trapped = append(d.trapped, q.Trapped)
		d.reopts += p.reopts
	}
	return d, nil
}

// E1POPAggregate reproduces Figure 1: box-range summaries of per-query
// response time for the standard system and for POP. The expected shape:
// similar medians, but POP pulls in the upper tail (the "problem queries").
func E1POPAggregate(scale float64) (*Report, error) {
	d, err := runPOPWorkload(scale)
	if err != nil {
		return nil, err
	}
	r := newReport("E1", "POP aggregated improvement (Figure 1)")
	qs := robustness.Summarize(d.classic)
	qp := robustness.Summarize(d.pop)
	r.Printf("%-10s %s", "standard:", qs)
	r.Printf("%-10s %s", "POP:", qp)
	r.Printf("queries=%d reopts=%d", d.nQueries, d.reopts)
	r.Set("standard_median", qs.Median)
	r.Set("pop_median", qp.Median)
	r.Set("standard_max", qs.Max)
	r.Set("pop_max", qp.Max)
	r.Set("tail_improvement", qs.Max/qp.Max)
	return r, nil
}

// E2POPSpeedups reproduces Figure 2: per-query speedup ratios ordered by
// decreasing improvement, with the regression count below the 1.0 line.
func E2POPSpeedups(scale float64) (*Report, error) {
	d, err := runPOPWorkload(scale)
	if err != nil {
		return nil, err
	}
	r := newReport("E2", "POP relative improvement per query (Figure 2)")
	series, regressions := robustness.SpeedupSeries(d.ids, d.classic, d.pop, 0.95)
	for i, s := range series {
		if i < 10 || i >= len(series)-3 {
			r.Printf("%s ratio=%.2f", s.ID, s.Ratio)
		} else if i == 10 {
			r.Printf("... (%d more)", len(series)-13)
		}
	}
	improved := 0
	for _, s := range series {
		if s.Ratio > 1.05 {
			improved++
		}
	}
	r.Printf("improved=%d regressions=%d total=%d", improved, regressions, len(series))
	r.Set("improved", float64(improved))
	r.Set("regressions", float64(regressions))
	r.Set("best_speedup", series[0].Ratio)
	return r, nil
}

// E3POPScatter reproduces Figure 3: (standard time, POP time) pairs. Points
// below the diagonal are improvements.
func E3POPScatter(scale float64) (*Report, error) {
	d, err := runPOPWorkload(scale)
	if err != nil {
		return nil, err
	}
	r := newReport("E3", "POP scatter: standard vs POP response time (Figure 3)")
	pts := robustness.Scatter(d.ids, d.classic, d.pop)
	below, above := 0, 0
	for _, p := range pts {
		if p.Y < p.X*0.98 {
			below++
		} else if p.Y > p.X*1.02 {
			above++
		}
	}
	for i, p := range pts {
		if i < 8 {
			trap := ""
			if d.trapped[i] {
				trap = " [trapped]"
			}
			r.Printf("%s x=%.1f y=%.1f%s", p.ID, p.X, p.Y, trap)
		}
	}
	r.Printf("below_diagonal=%d above=%d near=%d", below, above, len(pts)-below-above)
	r.Set("below_diagonal", float64(below))
	r.Set("above_diagonal", float64(above))
	return r, nil
}
