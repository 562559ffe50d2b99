package adaptive

import (
	"fmt"
	"math"
	"sort"

	"rqp/internal/expr"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// Rio implements proactive re-optimization (Babu, Bizarro & DeWitt):
// instead of trusting point estimates, it draws a bounding box around each
// base-relation cardinality (low/estimate/high corners), checks whether one
// plan is optimal across the whole box, and otherwise picks the plan with
// the least worst-case regret over the corners — preferring robust plans up
// front rather than repairing mistakes mid-flight.
type Rio struct {
	Opt *opt.Optimizer
}

const (
	// uncertaintyFactor f scales every non-temp base relation's estimate to
	// the corners card/f, card and card*f: with f = 6, a box of ±6×.
	uncertaintyFactor float64 = 6
	// cornerPlanLimit caps the per-corner enumeration.
	cornerPlanLimit = 64
)

// RioChoice reports the decision.
type RioChoice struct {
	Robust    bool    // one plan optimal at every corner
	Sig       string  // chosen plan signature
	MaxRegret float64 // worst-case cost ratio vs the corner-optimal plan
}

// chooseCore selects a join-core plan for the given relations under
// bounding-box uncertainty and returns the chosen core with its output
// column order.
func (r *Rio) chooseCore(rels []opt.BaseRel, conjuncts []expr.Expr, params []types.Value) (plan.Node, []int, RioChoice, error) {
	// Per corner: signature -> cost, and the corner's optimum. Each corner
	// plans over a layer of its own on the optimizer's Cards, so its factor
	// multiplies whatever LEO has learned.
	type cornerInfo struct {
		costs map[string]float64
		best  float64
	}
	var infos [3]cornerInfo
	rep := map[string]opt.CorePlan{} // the estimate corner's plan per signature
	for ci, mult := range [3]float64{1 / uncertaintyFactor, 1, uncertaintyFactor} {
		cards := r.Opt.Cards.Over()
		cards.ScaleBase(mult)
		plans, err := r.Opt.WithCards(cards).EnumerateCorePlans(rels, conjuncts, params, cornerPlanLimit)
		if err != nil {
			return nil, nil, RioChoice{}, err
		}
		if len(plans) == 0 {
			return nil, nil, RioChoice{}, fmt.Errorf("adaptive: rio found no plans")
		}
		info := cornerInfo{costs: map[string]float64{}, best: math.Inf(1)}
		for _, p := range plans {
			info.costs[p.Sig] = p.Cost
			info.best = math.Min(info.best, p.Cost)
			if ci == 1 {
				rep[p.Sig] = p
			}
		}
		infos[ci] = info
	}
	// regret is a plan's worst cost ratio to a corner's optimum; false when a
	// corner did not enumerate it.
	regret := func(sig string) (float64, bool) {
		worst := 0.0
		for _, info := range infos {
			c, ok := info.costs[sig]
			if !ok {
				return 0, false
			}
			worst = math.Max(worst, c/info.best)
		}
		return worst, true
	}
	// Signatures are visited in order, so equal costs and equal regrets go
	// to the least signature, as the enumerator's ties do.
	sigs := make([]string, 0, len(rep))
	for sig := range rep {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)

	// Robust if the estimate corner's optimum is optimal at every corner.
	estBest := ""
	for _, sig := range sigs {
		if infos[1].costs[sig] == infos[1].best {
			estBest = sig
			break
		}
	}
	if worst, ok := regret(estBest); ok && worst <= 1.0001 {
		return rep[estBest].Node, rep[estBest].Cols, RioChoice{Robust: true, Sig: estBest, MaxRegret: 1}, nil
	}
	// Minimax regret over the plans of the estimate corner.
	choice := RioChoice{Sig: estBest, MaxRegret: math.Inf(1)}
	for _, sig := range sigs {
		if worst, ok := regret(sig); ok && worst < choice.MaxRegret {
			choice.Sig, choice.MaxRegret = sig, worst
		}
	}
	return rep[choice.Sig].Node, rep[choice.Sig].Cols, choice, nil
}

// Choose plans a full query block with Rio's bounding-box strategy.
func (r *Rio) Choose(q *plan.Query, params []types.Value) (plan.Node, RioChoice, error) {
	rels := opt.BaseRelsFromQuery(q)
	core, cols, choice, err := r.chooseCore(rels, q.Conjuncts, params)
	if err != nil {
		return nil, choice, err
	}
	root, err := r.Opt.FinishPlan(q, core, cols)
	return root, choice, err
}
