package experiments

import (
	"math"

	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E7Equivalence implements the Graefe et al. "benchmarking robustness"
// suite: every pack of semantically equivalent query spellings must plan
// identically, estimate identically and consume identical resources. The
// reported score per pack is the number of distinct plan signatures (ideal
// 1), the estimate spread and the measured cost spread (max/min, ideal 1.0).
func E7Equivalence(scale float64) (*Report, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.4 * scale, Seed: 5})
	if err != nil {
		return nil, err
	}
	r := newReport("E7", "equivalent-query robustness (plan/estimate/cost spread per pack)")
	worstCostSpread := 1.0
	totalDistinctPlans := 0
	packs := workload.EquivalencePacks()
	for _, pack := range packs {
		sigs := map[string]bool{}
		minCost, maxCost := math.Inf(1), math.Inf(-1)
		minEst, maxEst := math.Inf(1), math.Inf(-1)
		for _, q := range pack.Queries {
			run, err := execute(cat, defaults(), sqls(q)...)
			if err != nil {
				return nil, err
			}
			root := run.plans[0]
			sigs[plan.PlanSignature(root)] = true
			est := root.Props().EstRows
			// Use the deepest scan's estimate for single-table packs: the
			// projection estimate of a COUNT(*) is always 1.
			plan.Walk(root, func(n plan.Node) {
				switch n.(type) {
				case *plan.ScanNode, *plan.IndexScanNode:
					est = n.Props().EstRows
				}
			})
			c := run.cost()
			minCost, maxCost = math.Min(minCost, c), math.Max(maxCost, c)
			minEst, maxEst = math.Min(minEst, est), math.Max(maxEst, est)
		}
		costSpread := maxCost / math.Max(minCost, 1e-9)
		estSpread := maxEst / math.Max(minEst, 1e-9)
		r.Printf("%-24s plans=%d est_spread=%.3f cost_spread=%.3f",
			pack.Name, len(sigs), estSpread, costSpread)
		if costSpread > worstCostSpread {
			worstCostSpread = costSpread
		}
		totalDistinctPlans += len(sigs)
	}
	r.Printf("packs=%d ideal distinct plans=%d achieved=%d",
		len(packs), len(packs), totalDistinctPlans)

	// Literals vs parameters — the session's remaining axis: the same
	// range query with inline literals and with '?' placeholders must
	// consume the same resources.
	lit, err := execute(cat, defaults(), sqls("SELECT COUNT(*) FROM lineitem WHERE l_quantity >= 10 AND l_quantity <= 20")...)
	if err != nil {
		return nil, err
	}
	param, err := execute(cat, defaults(), stmt{sql: "SELECT COUNT(*) FROM lineitem WHERE l_quantity >= ? AND l_quantity <= ?",
		params: []types.Value{types.Int(10), types.Int(20)}})
	if err != nil {
		return nil, err
	}
	litCost, paramCost := lit.cost(), param.cost()
	lvp := math.Max(litCost, paramCost) / math.Max(math.Min(litCost, paramCost), 1e-9)
	r.Printf("literal vs parameter cost spread = %.3f (lit=%.1f param=%.1f)", lvp, litCost, paramCost)
	r.Set("worst_cost_spread", math.Max(worstCostSpread, lvp))
	r.Set("literal_vs_param_spread", lvp)
	r.Set("total_distinct_plans", float64(totalDistinctPlans))
	r.Set("packs", float64(len(packs)))
	return r, nil
}
