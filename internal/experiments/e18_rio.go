package experiments

import (
	"slices"

	"rqp/internal/core"
	"rqp/internal/robustness"
	"rqp/internal/workload"
)

// E18Rio compares the three reaction points of the adaptation spectrum the
// report's execution sessions lay out, on the correlation-trap workload:
//
//	a-priori    — Rio bounding boxes (choose a robust plan up front);
//	reactive    — POP checked progressive re-optimization (repair at run time);
//	baseline    — classic optimize-once.
//
// Reported per system: total cost, worst-case query cost, and smoothness
// over the workload.
func E18Rio(scale float64) (*Report, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(15000, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	queries := workload.StarWorkload(cfg, scaleInt(30, scale), 0.5, 77)

	policies := []core.ExecPolicy{core.PolicyClassic, core.PolicyPOP, core.PolicyRio}
	costs := make([][]float64, len(policies))
	for _, q := range queries {
		for i, p := range policies {
			k := defaults()
			k.Policy = p
			run, err := execute(cat, k, sqls(q.SQL)...)
			if err != nil {
				return nil, err
			}
			costs[i] = append(costs[i], run.cost())
		}
	}

	r := newReport("E18", "adaptation spectrum: classic vs POP (reactive) vs Rio (proactive)")
	for i, p := range policies {
		total, worst := 0.0, slices.Max(costs[i])
		for _, c := range costs[i] {
			total += c
		}
		sm := robustness.Smoothness(costs[i])
		r.Printf("%-8s total=%.1f worst=%.1f smoothness=%.3f", p, total, worst, sm)
		r.Set(p.String()+"_total", total)
		r.Set(p.String()+"_worst", worst)
		r.Set(p.String()+"_smoothness", sm)
	}
	return r, nil
}
