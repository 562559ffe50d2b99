package experiments

import (
	"math"

	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/stats"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E15BlackHat is the Lohman "black hat" cardinality test: a redundant
// pseudo-key predicate (fully determined by another predicate) makes
// independence-based estimation underestimate by orders of magnitude — the
// insurance-company war story. Four estimators are compared on the same
// query: independence, Babcock–Chaudhuri percentile, correlation-aware
// (column-group statistics), and maximum-entropy with the joint selectivity
// as a constraint.
func E15BlackHat(scale float64) (*Report, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(20000, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	fact, _ := cat.Table("fact")
	// Give the correlated estimator its column-group statistic.
	if err := cat.AnalyzeGroup(fact, []string{"attr", "pseudo"}); err != nil {
		return nil, err
	}
	query := "SELECT COUNT(*) FROM fact WHERE attr = 2 AND pseudo = 6"
	run := func(mode opt.EstimateMode, p float64) (est float64, actual float64, err error) {
		k := defaults()
		k.Mode = mode
		if p > 0 {
			k.PercentileP = p
		}
		res, err := execute(cat, k, sqls(query)...)
		if err != nil {
			return 0, 0, err
		}
		var scanEst float64
		plan.Walk(res.plans[0], func(n plan.Node) {
			if _, ok := n.(*plan.ScanNode); ok {
				scanEst = n.Props().EstRows
			}
		})
		return scanEst, float64(res.rows[0][0].I), nil
	}

	indepEst, actual, err := run(opt.Expected, 0)
	if err != nil {
		return nil, err
	}
	pctEst, _, err := run(opt.Percentile, 0.95)
	if err != nil {
		return nil, err
	}
	corrEst, _, err := run(opt.Correlated, 0)
	if err != nil {
		return nil, err
	}

	// Maximum entropy with the joint constraint (what an optimizer with
	// multivariate statistics can conclude).
	attrStats := fact.Stats.ColStats(1)
	selAttr := attrStats.SelectivityEq(types.Int(2))
	pseudoStats := fact.Stats.ColStats(2)
	selPseudo := pseudoStats.SelectivityEq(types.Int(6))
	me := stats.NewMaxEntCombiner(2)
	me.AddMarginal(0, selAttr)
	me.AddMarginal(1, selPseudo)
	// The joint distinct statistic implies sel(attr ∧ pseudo) = min marginal.
	me.AddJoint([]int{0, 1}, math.Min(selAttr, selPseudo))
	meEst := me.Selectivity(nil) * float64(cfg.FactRows)

	r := newReport("E15", "black-hat cardinality: redundant pseudo-key predicate")
	r.Printf("query: attr = 2 AND pseudo = 6 (pseudo ≡ 3·attr, fully redundant)")
	r.Printf("actual rows                    = %.0f", actual)
	r.Printf("independence estimate          = %.1f  (factor %.0fx under)", indepEst, safeRatio(actual, indepEst))
	r.Printf("percentile(0.95) estimate      = %.1f  (factor %.0fx under)", pctEst, safeRatio(actual, pctEst))
	r.Printf("correlation-aware estimate     = %.1f  (factor %.1fx)", corrEst, safeRatio(actual, corrEst))
	r.Printf("maximum-entropy (joint known)  = %.1f  (factor %.1fx)", meEst, safeRatio(actual, meEst))
	r.Set("actual", actual)
	r.Set("indep_underestimate_factor", safeRatio(actual, indepEst))
	r.Set("corr_error_factor", safeRatio(actual, corrEst))
	r.Set("maxent_error_factor", safeRatio(actual, meEst))
	return r, nil
}

func safeRatio(a, b float64) float64 {
	return math.Max(a, 1) / math.Max(b, 1)
}
