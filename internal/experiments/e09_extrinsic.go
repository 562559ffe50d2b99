package experiments

import (
	"math"

	"rqp/internal/opt"
	"rqp/internal/robustness"
	"rqp/internal/workload"
)

// E9Extrinsic implements Agrawal et al.'s end-to-end robustness metric:
// after an environment change the system pays some cost increase no matter
// what (intrinsic variability — the ideal plan's cost also moves); the
// system is charged only for *extrinsic* variability, the divergence of its
// produced plan from the environment's ideal plan. The environment change
// is a memory collapse (hash joins and sorts spill); the ideal plan per
// environment is found by forcing every enumerated plan.
func E9Extrinsic(scale float64) (*Report, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(12000, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	query := `SELECT dim1.region, COUNT(*) FROM fact, dim1
		WHERE fact.d1 = dim1.id AND fact.attr < 40 GROUP BY dim1.region`
	bq, err := bind(cat, query)
	if err != nil {
		return nil, err
	}

	r := newReport("E9", "extrinsic variability under an environment change (memory collapse)")
	envs := []struct {
		name string
		mem  int
	}{
		{"ample-memory", 1 << 20},
		{"collapsed-memory", 64},
	}

	// The system plans believing it has ample memory (the change is
	// unexpected — that is the point of the test) and runs that plan in
	// every environment.
	believed, err := execute(cat, defaults(), sqls(query)...)
	if err != nil {
		return nil, err
	}
	var idealTimes, producedTimes []float64
	for _, env := range envs {
		k := defaults()
		k.MemBudgetRows = env.mem
		produced, err := execute(cat, k, stmt{root: believed.plans[0]})
		if err != nil {
			return nil, err
		}
		tProduced := produced.cost()
		// The ideal plan for this environment: an optimizer that *knows*
		// the memory budget, plus exhaustive forcing as ground truth.
		oIdeal := opt.New(cat)
		oIdeal.Opt = k.Options
		plans, err := oIdeal.EnumerateFullPlans(bq, nil, 16)
		if err != nil {
			return nil, err
		}
		tIdeal := math.Inf(1)
		for _, p := range plans {
			run, err := execute(cat, k, stmt{root: p.Root})
			if err != nil {
				return nil, err
			}
			tIdeal = math.Min(tIdeal, run.cost())
		}
		idealTimes = append(idealTimes, tIdeal)
		producedTimes = append(producedTimes, tProduced)
		ext := robustness.ExtrinsicVariability(tProduced, tIdeal)
		r.Printf("%-18s produced=%.1f ideal=%.1f extrinsic=%.3f", env.name, tProduced, tIdeal, ext)
	}
	intrinsic := idealTimes[1] / math.Max(idealTimes[0], 1e-9)
	extrinsic := robustness.ExtrinsicVariability(producedTimes[1], idealTimes[1])
	r.Printf("intrinsic variability (ideal cost growth) = %.2fx", intrinsic)
	r.Printf("extrinsic variability (system's own fault) = %.3f", extrinsic)
	r.Set("intrinsic", intrinsic)
	r.Set("extrinsic", extrinsic)
	return r, nil
}
