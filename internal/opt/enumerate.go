package opt

import (
	"sort"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// EnumeratedPlan is one fully-finished alternative plan together with its
// optimizer-side estimates, as needed by the Dagstuhl risk metrics
// (Metric2 sums cardinality errors over *enumerated* plans; Metric3 forces
// every enumerated plan and compares the best enumerated runtime against
// the chosen plan's runtime).
type EnumeratedPlan struct {
	Root    plan.Node
	EstCost float64
	EstRows float64
}

// CorePlan is one enumerated join-core alternative over explicit base
// relations (no finishing operators), used by Rio-style bounding-box
// analysis which re-enumerates under scaled cardinality scenarios.
type CorePlan struct {
	Node plan.Node
	Cols []int
	Cost float64
	Rows float64
	Sig  string
}

// EnumerateCorePlans enumerates up to limit join cores over the given
// relations, deduplicated by plan signature (keeping the cheapest).
func (o *Optimizer) EnumerateCorePlans(rels []BaseRel, conjuncts []expr.Expr, params []types.Value, limit int) ([]CorePlan, error) {
	qi, err := o.analyze(rels, conjuncts, params, nil)
	if err != nil {
		return nil, err
	}
	cores, err := o.enumerateCores(qi, limit)
	if err != nil {
		return nil, err
	}
	bySig := map[string]CorePlan{}
	for _, c := range cores {
		sig := plan.PlanSignature(c.node)
		if prev, ok := bySig[sig]; !ok || c.cost < prev.Cost {
			bySig[sig] = CorePlan{Node: c.node, Cols: c.cols, Cost: c.cost, Rows: c.rows, Sig: sig}
		}
	}
	out := make([]CorePlan, 0, len(bySig))
	for _, c := range bySig {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out, nil
}

func (o *Optimizer) enumerateCores(qi *queryInfo, limit int) ([]entry, error) {
	n := len(qi.rels)
	var cores []entry
	if n == 1 {
		return []entry{o.bestAccessPath(qi, 0)}, nil
	}
	var extend func(cur entry, used uint64, cross bool)
	extend = func(cur entry, used uint64, cross bool) {
		if len(cores) >= limit {
			return
		}
		full := uint64(1)<<uint(n) - 1
		if used == full {
			cores = append(cores, cur)
			return
		}
		for i := 0; i < n; i++ {
			bit := uint64(1) << uint(i)
			if used&bit != 0 {
				continue
			}
			if !cross && len(qi.preds) > 0 && !o.connected(qi, used, bit) {
				continue
			}
			next := o.bestAccessPath(qi, i)
			alts, n := o.priceJoins(qi, cur, next)
			for _, a := range alts[:n] {
				extend(o.buildJoin(qi, cur, next, a), used|bit, cross)
				if len(cores) >= limit {
					return
				}
			}
		}
	}
	// Unless Options admit them, cross products only where nothing else plans.
	for _, cross := range [2]bool{o.Opt.CrossProducts, true} {
		for i := 0; i < n && len(cores) < limit; i++ {
			start := o.bestAccessPath(qi, i)
			extend(start, start.set, cross)
		}
		if len(cores) > 0 {
			break
		}
	}
	return cores, nil
}

// EnumerateFullPlans generates up to limit distinct complete plans for the
// query: every left-deep join order, with every admissible join algorithm
// at each step. Plans are returned sorted by estimated cost (the chosen
// plan first).
func (o *Optimizer) EnumerateFullPlans(q *plan.Query, params []types.Value, limit int) ([]EnumeratedPlan, error) {
	rels := BaseRelsFromQuery(q)
	lv := blockLiveness(q)
	qi, err := o.analyze(rels, q.Conjuncts, params, lv)
	if err != nil {
		return nil, err
	}
	cores, err := o.enumerateCores(qi, limit)
	if err != nil {
		return nil, err
	}
	out := make([]EnumeratedPlan, 0, len(cores))
	for _, c := range cores {
		root, err := o.finish(q, c, lv)
		if err != nil {
			return nil, err
		}
		out = append(out, EnumeratedPlan{Root: root, EstCost: root.Props().EstCost, EstRows: root.Props().EstRows})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].EstCost < out[j].EstCost })
	return out, nil
}
