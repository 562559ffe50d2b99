// Package adaptive implements the run-time adaptivity techniques the
// Dagstuhl report catalogues: POP-style progressive (re-)optimization with
// validity checks over materialized intermediates, LEO-style execution
// feedback, Rio-style bounding-box plan selection, and an eddy for adaptive
// selection ordering.
package adaptive

import (
	"fmt"

	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// ReoptPolicy selects how the progressive executor reacts at
// materialization points.
type ReoptPolicy uint8

// Policies. Checked re-optimizes the remainder only when the observed
// cardinality of a materialized intermediate would change the
// remainder plan (a validity-range violation, detected by re-planning the
// remainder under the actual cardinality and comparing plan signatures).
// Eager re-optimizes at every materialization point.
const (
	Checked ReoptPolicy = iota
	Eager
)

// String names the policy.
func (p ReoptPolicy) String() string {
	switch p {
	case Checked:
		return "pop-checked"
	case Eager:
		return "pop-eager"
	}
	return "?"
}

// Progressive executes query blocks join-by-join, materializing each
// intermediate, and (per policy) re-optimizing the remaining joins with the
// exact cardinality of completed work — Markl et al.'s "robust query
// processing through progressive optimization" on this engine.
type Progressive struct {
	Opt    *opt.Optimizer
	Policy ReoptPolicy
}

// reoptCharge is the simulated cost in units charged per re-optimization,
// so the technique's overhead is visible in measured response times.
const reoptCharge = 5

// Result reports what the progressive executor did.
type Result struct {
	Rows     []types.Row // nil when they went to ExecuteInto's sink
	RowCount int
	Reopts   int
	Steps    int
	Checks   []CheckRecord
}

// CheckRecord captures one materialization point's estimate vs actual.
type CheckRecord struct {
	Estimated float64
	Actual    float64
	Violated  bool
}

// Execute runs the query block under the configured policy and keeps the
// result in Result.Rows.
func (p *Progressive) Execute(q *plan.Query, ctx *exec.Context) (*Result, error) {
	return p.ExecuteInto(q, ctx, nil)
}

// ExecuteInto is Execute with the final plan's rows handed to sink as they
// are produced (exec.Drain's contract: nil keeps them in Result.Rows). The
// intermediates POP materializes never reach the sink.
func (p *Progressive) ExecuteInto(q *plan.Query, ctx *exec.Context, sink exec.RowSink) (*Result, error) {
	res := &Result{}

	// Working state: live relations, their q.Combined column origins, and
	// the conjuncts not yet applied (in q.Combined coordinates).
	rels := opt.BaseRelsFromQuery(q)
	orig := make([][]int, len(rels))
	for i, r := range q.Rels {
		cols := make([]int, r.Width())
		for c := range cols {
			cols[c] = r.Offset + c
		}
		orig[i] = cols
	}
	remaining := append([]expr.Expr(nil), q.Conjuncts...)

	for {
		curConj, err := translateConjuncts(remaining, rels, orig)
		if err != nil {
			return nil, err
		}
		core, cols, err := p.Opt.OptimizeJoinGraph(rels, curConj, ctx.Params)
		if err != nil {
			return nil, err
		}
		// finish runs what is left as one static plan, into the sink.
		finish := func() (*Result, error) {
			qCols, err := translateCols(cols, rels, orig)
			if err != nil {
				return nil, err
			}
			root, err := p.Opt.FinishPlan(q, core, qCols)
			if err != nil {
				return nil, err
			}
			res.Rows, res.RowCount, err = exec.Drain(root, ctx, sink)
			if err != nil {
				return nil, err
			}
			return res, nil
		}
		if len(rels) == 1 {
			return finish()
		}

		// Find the first executable join (both inputs are leaf scans).
		sub := firstJoin(core)

		// POP's checkpoint sits *below* the join: materialize the join's outer
		// input first. With the outer's exact cardinality, re-planning can
		// repair a mistaken join method or order before the join runs —
		// without this, a catastrophic first join would already have
		// happened by the time its output is counted.
		// Checked mode only instruments *risky* inputs (estimates derived by
		// multiplying several predicate selectivities under independence —
		// the derivation-based uncertainty classification Rio introduced).
		// A plan whose first join has no risky input runs to completion
		// statically: checks are free when nothing needs checking.
		if p.Policy == Checked && sub != nil {
			if leaf, ok := outerBaseLeaf(sub); !ok || !uncertainLeaf(leaf) {
				return finish()
			}
		}
		if sub != nil {
			if leaf, ok := outerBaseLeaf(sub); ok {
				matRows, err := exec.Run(leaf, ctx)
				if err != nil {
					return nil, err
				}
				estimated := leaf.Props().EstRows
				actual := float64(len(matRows))
				alias := leafAliases(leaf)[0]
				li := relIndexByAlias(rels, alias)
				if li < 0 {
					return nil, fmt.Errorf("adaptive: unknown leaf relation %q", alias)
				}
				newRels := append([]opt.BaseRel(nil), rels...)
				newRels[li] = opt.TempRel(alias, rels[li].Schema, matRows)
				remaining = dropCoveredConjuncts(remaining, orig[li])
				if err := p.check(ctx, res, newRels, orig, remaining, li, estimated, actual); err != nil {
					return nil, err
				}
				rels = newRels
				continue
			}
		}
		if sub == nil {
			// No join (single relation handled above) — finish statically.
			return finish()
		}
		aliases := leafAliases(sub)
		if len(aliases) != 2 {
			return nil, fmt.Errorf("adaptive: first join covers %d relations", len(aliases))
		}
		estimated := sub.Props().EstRows
		matRows, err := exec.Run(sub, ctx)
		if err != nil {
			return nil, err
		}
		actual := float64(len(matRows))
		res.Steps++

		li := relIndexByAlias(rels, aliases[0])
		ri := relIndexByAlias(rels, aliases[1])
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("adaptive: unknown relation in %v", aliases)
		}
		// Build the merged temp relation: output schema is left then right.
		mergedSchema := rels[li].Schema.Concat(rels[ri].Schema)
		mergedOrig := append(append([]int{}, orig[li]...), orig[ri]...)
		tmp := opt.TempRel(fmt.Sprintf("tmp%d", res.Steps), mergedSchema, matRows)

		// Drop conjuncts fully applied inside the executed join.
		remaining = dropCoveredConjuncts(remaining, mergedOrig)

		// Replace the two relations with the temp.
		newRels := []opt.BaseRel{}
		newOrig := [][]int{}
		for i := range rels {
			if i == li || i == ri {
				continue
			}
			newRels = append(newRels, rels[i])
			newOrig = append(newOrig, orig[i])
		}
		newRels = append(newRels, tmp)
		newOrig = append(newOrig, mergedOrig)

		if err := p.check(ctx, res, newRels, newOrig, remaining, len(newRels)-1, estimated, actual); err != nil {
			return nil, err
		}
		rels, orig = newRels, newOrig
		// Loop re-optimizes the remainder with the temp's exact cardinality.
		// Under Checked without violation the re-optimization necessarily
		// reproduces the same remainder plan, so looping is equivalent to
		// continuing the original plan.
	}
}

// chargeReopt bills the simulated cost of one re-optimization (RowCPU is
// 0.01 units, so reoptCharge units = 100×reoptCharge row-works).
func chargeReopt(ctx *exec.Context) {
	ctx.Clock.RowWork(reoptCharge * 100)
}

// traceCheck reports one materialization checkpoint (and, on violation, the
// re-optimization it triggers) to the context's tracer.
func traceCheck(ctx *exec.Context, step int, estimated, actual float64, violated bool) {
	if ctx.Trace == nil {
		return
	}
	ctx.Trace.Event("pop.check",
		fmt.Sprintf("step=%d est=%.0f actual=%.0f violated=%v", step, estimated, actual, violated))
	if violated {
		ctx.Trace.Event("pop.reopt", fmt.Sprintf("step=%d", step))
	}
}

// outerBaseLeaf returns the first join's outer input when it is still a
// base-table access (not yet a materialized temp).
func outerBaseLeaf(sub plan.Node) (plan.Node, bool) {
	var left plan.Node
	switch j := sub.(type) {
	case *plan.JoinNode:
		left = j.Left()
	case *plan.IndexJoinNode:
		left = j.Left()
	default:
		return nil, false
	}
	switch left.(type) {
	case *plan.ScanNode, *plan.IndexScanNode:
		return left, true
	}
	return nil, false
}

// uncertainLeaf classifies an access path's estimate by derivation: a
// filter combining two or more predicates (independence multiplication) or
// a materialized temp never counts; single-predicate estimates come
// straight from a histogram and are trusted.
func uncertainLeaf(leaf plan.Node) bool {
	switch n := leaf.(type) {
	case *plan.ScanNode:
		return len(expr.Conjuncts(n.Filter)) >= 2
	case *plan.IndexScanNode:
		// The index bounds count as one predicate however many conjuncts
		// they intersect: their selectivity is one histogram lookup.
		return n.Residual != nil
	}
	return false
}

// dropCoveredConjuncts removes conjuncts whose columns are all inside the
// covered q.Combined column set (they have been applied by execution).
func dropCoveredConjuncts(remaining []expr.Expr, covered []int) []expr.Expr {
	set := map[int]bool{}
	for _, c := range covered {
		set[c] = true
	}
	var out []expr.Expr
	for _, c := range remaining {
		all := true
		for col := range expr.ColumnsUsed(c) {
			if !set[col] {
				all = false
				break
			}
		}
		if !all {
			out = append(out, c)
		}
	}
	return out
}

// check records one materialization point, where the temp rels[tmpIdx] was
// estimated at estimated rows and holds actual. Under Checked it is violated
// when the remainder's plan at the actual rows differs from its plan at the
// estimate (any other policy re-plans regardless); a violation counts and
// charges a re-optimization. The check plans over a layer of its own on the
// optimizer's Cards, which holds the temp's rows under its alias.
func (p *Progressive) check(ctx *exec.Context, res *Result, rels []opt.BaseRel, orig [][]int, remaining []expr.Expr, tmpIdx int, estimated, actual float64) error {
	violated := p.Policy != Checked
	if p.Policy == Checked && len(rels) > 1 {
		conj, err := translateConjuncts(remaining, rels, orig)
		if err != nil {
			return err
		}
		cards := p.Opt.Cards.Over()
		o := p.Opt.WithCards(cards)
		var sigs [2]string
		for i, rows := range [2]float64{estimated, actual} {
			cards.SetRows(rels[tmpIdx].Alias, rows)
			node, _, err := o.OptimizeJoinGraph(rels, conj, ctx.Params)
			if err != nil {
				return err
			}
			sigs[i] = plan.PlanSignature(node)
		}
		violated = sigs[0] != sigs[1]
	}
	res.Checks = append(res.Checks, CheckRecord{Estimated: estimated, Actual: actual, Violated: violated})
	traceCheck(ctx, res.Steps, estimated, actual, violated)
	if violated {
		res.Reopts++
		chargeReopt(ctx)
	}
	return nil
}

// translateConjuncts rewrites conjuncts from q.Combined coordinates into the
// current concatenated-relation coordinates defined by orig.
func translateConjuncts(conjuncts []expr.Expr, rels []opt.BaseRel, orig [][]int) ([]expr.Expr, error) {
	m := map[int]int{}
	cur := 0
	for i := range rels {
		for _, qc := range orig[i] {
			m[qc] = cur
			cur++
		}
	}
	out := make([]expr.Expr, 0, len(conjuncts))
	for _, c := range conjuncts {
		for col := range expr.ColumnsUsed(c) {
			if _, ok := m[col]; !ok {
				return nil, fmt.Errorf("adaptive: conjunct %s references dropped column %d", c, col)
			}
		}
		out = append(out, expr.RemapColumns(c, m))
	}
	return out, nil
}

// translateCols maps current-space output columns to q.Combined columns.
func translateCols(cols []int, rels []opt.BaseRel, orig [][]int) ([]int, error) {
	flat := []int{}
	for i := range rels {
		flat = append(flat, orig[i]...)
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(flat) {
			return nil, fmt.Errorf("adaptive: column %d out of range", c)
		}
		out[i] = flat[c]
	}
	return out, nil
}

// firstJoin returns the deepest join node both of whose inputs are leaves.
func firstJoin(n plan.Node) plan.Node {
	var found plan.Node
	var walk func(plan.Node)
	walk = func(x plan.Node) {
		if found != nil {
			return
		}
		switch j := x.(type) {
		case *plan.JoinNode:
			if isLeaf(j.Left()) && isLeaf(j.Right()) {
				found = j
				return
			}
			walk(j.Left())
			walk(j.Right())
		case *plan.IndexJoinNode:
			if isLeaf(j.Left()) {
				found = j
				return
			}
			walk(j.Left())
		default:
			for _, c := range x.Children() {
				walk(c)
			}
		}
	}
	walk(n)
	return found
}

func isLeaf(n plan.Node) bool {
	switch n.(type) {
	case *plan.ScanNode, *plan.IndexScanNode, *plan.TempScanNode:
		return true
	}
	return false
}

// leafAliases lists the relation aliases a subtree covers in output-column
// order (left input's relations before the right's).
func leafAliases(n plan.Node) []string {
	switch x := n.(type) {
	case *plan.ScanNode:
		return []string{x.Alias}
	case *plan.IndexScanNode:
		return []string{x.Alias}
	case *plan.TempScanNode:
		return []string{x.Alias}
	case *plan.IndexJoinNode:
		return append(leafAliases(x.Left()), x.Alias)
	default:
		var out []string
		for _, c := range n.Children() {
			out = append(out, leafAliases(c)...)
		}
		return out
	}
}

func relIndexByAlias(rels []opt.BaseRel, alias string) int {
	for i, r := range rels {
		if r.Alias == alias {
			return i
		}
	}
	return -1
}
