package experiments

import (
	"slices"

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

	type system struct {
		name  string
		k     knobs
		costs []float64
	}
	var systems []*system
	for _, p := range []policy{classic, pop, rio} {
		k := defaults()
		k.policy = p
		systems = append(systems, &system{name: p.String(), k: k})
	}
	for _, q := range queries {
		for _, s := range systems {
			run, err := execute(cat, s.k, sqls(q.SQL)...)
			if err != nil {
				return nil, err
			}
			s.costs = append(s.costs, run.cost())
		}
	}

	r := newReport("E18", "adaptation spectrum: classic vs POP (reactive) vs Rio (proactive)")
	for _, s := range systems {
		total, worst := 0.0, slices.Max(s.costs)
		for _, c := range s.costs {
			total += c
		}
		sm := robustness.Smoothness(s.costs)
		r.Printf("%-8s total=%.1f worst=%.1f smoothness=%.3f", s.name, total, worst, sm)
		r.Set(s.name+"_total", total)
		r.Set(s.name+"_worst", worst)
		r.Set(s.name+"_smoothness", sm)
	}
	return r, nil
}
