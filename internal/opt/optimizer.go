package opt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// entry is one candidate plan for a relation set during enumeration.
type entry struct {
	set  uint64
	node plan.Node
	cols []int // combined-schema index of each output column, in order
	cost float64
	rows float64
}

// Optimize plans a bound query block end to end and returns the physical
// plan root. Every scan emits only the columns the block mentions: rows are
// as wide as the query, not the table, from the access path up.
func (o *Optimizer) Optimize(q *plan.Query, params []types.Value) (plan.Node, error) {
	rels := BaseRelsFromQuery(q)
	need := mentioned(q)
	qi, err := o.analyze(rels, q.Conjuncts, params, need)
	if err != nil {
		return nil, err
	}
	best, err := o.enumerate(qi)
	if err != nil {
		return nil, err
	}
	return o.finish(q, best, need)
}

// mentioned marks the combined-schema columns (left-joined relations
// included) the query block reads: its conjuncts and outer-join conditions,
// and the group keys and aggregate arguments or — ungrouped — the
// projections. HAVING, ORDER BY and a grouped block's projections are over
// the aggregate's output and name no base column.
func mentioned(q *plan.Query) []bool {
	need := make([]bool, len(q.Combined))
	mark := func(n expr.Expr) bool {
		if c, ok := n.(*expr.Col); ok {
			need[c.Index] = true
		}
		return true
	}
	for _, c := range q.Conjuncts {
		c.Walk(mark)
	}
	for _, lj := range q.LeftJoins {
		if lj.On != nil {
			lj.On.Walk(mark)
		}
	}
	if !q.Grouped {
		for _, p := range q.Projections {
			p.Walk(mark)
		}
		return need
	}
	for _, g := range q.GroupBy {
		g.Walk(mark)
	}
	for _, a := range q.Aggs {
		if a.Arg != nil {
			a.Arg.Walk(mark)
		}
	}
	return need
}

// FinishPlan wraps an already-built join core (whose output columns map to
// the query's combined schema via cols) with the query's outer joins,
// aggregation, projection, distinct, ordering and limit. Progressive
// re-optimization uses this to complete plans over materialized
// intermediates. Like OptimizeJoinGraph, whose cores it finishes, it keeps
// every column of the relations it adds.
func (o *Optimizer) FinishPlan(q *plan.Query, core plan.Node, cols []int) (plan.Node, error) {
	e := entry{node: core, cols: cols, rows: core.Props().EstRows, cost: core.Props().EstCost}
	return o.finish(q, e, nil)
}

// OptimizeJoinGraph plans just a join over arbitrary base relations (used by
// progressive re-optimization over materialized intermediates). It returns
// the best join tree plus the output column order (combined indexes). With no
// query block to say which columns matter, every relation keeps all of them.
func (o *Optimizer) OptimizeJoinGraph(rels []BaseRel, conjuncts []expr.Expr, params []types.Value) (plan.Node, []int, error) {
	qi, err := o.analyze(rels, conjuncts, params, nil)
	if err != nil {
		return nil, nil, err
	}
	e, err := o.enumerate(qi)
	if err != nil {
		return nil, nil, err
	}
	return e.node, e.cols, nil
}

// enumerate runs DP over connected subsets.
func (o *Optimizer) enumerate(qi *queryInfo) (entry, error) {
	n := len(qi.rels)
	if n == 0 {
		return entry{}, fmt.Errorf("opt: no relations")
	}
	if n > 16 {
		return entry{}, fmt.Errorf("opt: too many relations (%d)", n)
	}
	dp := map[uint64]entry{}
	for i := range qi.rels {
		e := o.bestAccessPath(qi, i)
		dp[e.set] = e
	}
	full := (uint64(1) << uint(n)) - 1
	for size := 2; size <= n; size++ {
		for set := uint64(1); set <= full; set++ {
			if popcount(set) != size || set > full {
				continue
			}
			o.combineSplits(qi, dp, set, true)
			if _, ok := dp[set]; !ok {
				// no connected split: admit cross products for this set
				o.combineSplits(qi, dp, set, false)
			}
		}
	}
	best, ok := dp[full]
	if !ok {
		return entry{}, fmt.Errorf("opt: enumeration failed to cover all relations")
	}
	return best, nil
}

// combineSplits tries all admissible (left, right) splits of set. The loop
// visits every ordered pair of non-empty complementary subsets, so each
// unordered split is offered to joinCandidates twice, once per role
// assignment: right (Kids[1]) is a hash join's build and an NL join's inner.
// Without BushyJoins the search space is zig-zag trees: every join keeps at
// least one base relation as a child, on either side, so a single relation
// may probe a multi-relation build as well as the other way round. Only the
// splits whose sides are both multi-relation are bushy.
func (o *Optimizer) combineSplits(qi *queryInfo, dp map[uint64]entry, set uint64, requireConnected bool) {
	for right := set & (set - 1); ; right = (right - 1) & set {
		if right == 0 {
			break
		}
		left := set &^ right
		if left == 0 {
			continue
		}
		if !o.Opt.BushyJoins && popcount(right) != 1 && popcount(left) != 1 {
			continue
		}
		le, lok := dp[left]
		re, rok := dp[right]
		if !lok || !rok {
			continue
		}
		if requireConnected && !o.connected(qi, left, right) {
			continue
		}
		for _, cand := range o.joinCandidates(qi, le, re) {
			cur, ok := dp[set]
			if !ok || better(cand, cur) {
				dp[set] = cand
			}
		}
	}
}

// tieBand is the relative cost difference below which better calls two
// candidates equal.
const tieBand = 1e-4

// better orders candidate plans: strictly cheaper wins; near-ties (within
// 0.01%) break on the canonical plan signature so that semantically
// equivalent queries — e.g. commuted FROM lists — always produce the same
// plan (the equivalent-query robustness requirement).
func better(cand, cur entry) bool {
	diff := cand.cost - cur.cost
	tol := tieBand * (cand.cost + cur.cost + 1)
	if diff < -tol {
		return true
	}
	if diff > tol {
		return false
	}
	return plan.PlanSignature(cand.node) < plan.PlanSignature(cur.node)
}

func (o *Optimizer) connected(qi *queryInfo, left, right uint64) bool {
	for _, jp := range qi.preds {
		if jp.mask&left != 0 && jp.mask&right != 0 && jp.mask&(left|right) == jp.mask {
			return true
		}
	}
	return false
}

// ---------- access paths ----------

func (o *Optimizer) bestAccessPath(qi *queryInfo, i int) entry {
	ri := qi.rels[i]
	cols := ri.ccols
	set := uint64(1) << uint(i)
	filter := expr.AndAll(ri.filters)

	best := entry{set: set, cols: cols, rows: ri.card}
	if ri.rel.Table == nil { // materialized intermediate (possibly empty)
		node := &plan.TempScanNode{Alias: ri.rel.Alias, Rows: ri.rel.Temp, Filter: filter}
		node.Out = ri.rel.Schema
		node.Title = fmt.Sprintf("TempScan(%s)", ri.rel.Alias)
		node.Prop = plan.Props{EstRows: ri.card, EstCost: ri.rel.Pages*o.CM.SeqPageRead + ri.rel.Rows*o.CM.RowCPU, Signature: ri.signature}
		best.node = node
		best.cost = node.Prop.EstCost
		return best
	}

	scan := &plan.ScanNode{Table: ri.rel.Table, Alias: ri.rel.Alias, Filter: filter, Cols: ri.cols}
	scan.Out = ri.out
	scan.Title = fmt.Sprintf("SeqScan(%s)", ri.rel.Alias)
	scan.Prop = plan.Props{EstRows: ri.card, EstCost: o.costSeqScan(ri.rel.Pages, ri.rel.Rows), Signature: ri.signature}
	best.node = scan
	best.cost = scan.Prop.EstCost

	// Columnar path: available when the session enabled it and the table
	// carries a current column-store snapshot. Pushable col⋈const conjuncts
	// evaluate on encoded blocks and enable zone-map skipping, credited into
	// the estimate by costColScan.
	if o.Opt.Columnar {
		if cs := ri.rel.Table.Col(); cs != nil {
			npushed := 0
			for _, f := range ri.filters {
				if _, _, v, ok := expr.SplitColConst(f, qi.params); ok && !v.IsNull() {
					npushed++
				}
			}
			cost := o.costColScan(float64(cs.NumBlocks()), float64(cs.TotalPages(nil)), ri.rel.Rows, ri.card, npushed)
			if cost < best.cost {
				cscan := &plan.ScanNode{Table: ri.rel.Table, Alias: ri.rel.Alias, Filter: filter, Cols: ri.cols, Columnar: true}
				cscan.Out = ri.out
				cscan.Title = fmt.Sprintf("ColScan(%s)", ri.rel.Alias)
				cscan.Prop = plan.Props{EstRows: ri.card, EstCost: cost, Signature: ri.signature}
				best.node = cscan
				best.cost = cost
			}
		}
	}

	if o.Opt.NoIndexScans || ri.rel.Table == nil {
		return best
	}
	// Index paths: any live index whose leading column has a usable
	// interval among the pushed-down filters.
	var bestIndex *entry
	for _, ix := range ri.rel.Table.Indexes {
		if ix.Dropped {
			continue
		}
		lead := ix.Cols[0]
		iv := expr.Unbounded(lead)
		var bounds, residual []expr.Expr
		for _, f := range ri.filters {
			if fiv, ok := expr.ExtractInterval(f, qi.params); ok && fiv.Col == lead && !fiv.NE {
				iv = expr.Intersect(iv, fiv)
				bounds = append(bounds, f)
				continue
			}
			residual = append(residual, f)
		}
		if len(bounds) == 0 {
			continue
		}
		cs := ri.rel.Table.Stats.ColStats(lead)
		prefixSel := 1.0
		if cs != nil {
			if iv.HasEq {
				prefixSel = cs.SelectivityEq(iv.Eq)
			} else {
				lo, hi := math.Inf(-1), math.Inf(1)
				if iv.HasLo {
					lo = iv.Lo
				}
				if iv.HasHi {
					hi = iv.Hi
				}
				prefixSel = cs.SelectivityRange(lo, hi)
			}
		}
		if o.Opt.Mode == Percentile {
			// Robust mode biases toward over-estimating matches, making the
			// optimizer reluctant to bet on very selective index scans.
			prefixSel = fromEstimatePercentile(prefixSel, o.Opt.EvidenceRows, o.Opt.PercentileP)
		}
		matches := ri.rel.Rows * prefixSel
		cost := o.costIndexScan(float64(ix.Tree.Height()), matches, ri.rel.Rows)
		cost += matches * o.CM.RowCPU * float64(len(residual))
		if cost >= best.cost && !o.Opt.ForceIndexScans {
			continue
		}
		if bestIndex != nil && cost >= bestIndex.cost {
			continue
		}
		node := &plan.IndexScanNode{
			Table: ri.rel.Table, Alias: ri.rel.Alias, Index: ix, Cols: ri.cols,
			Bounds: bounds, Residual: expr.AndAll(residual),
		}
		node.Out = ri.out
		node.Title = fmt.Sprintf("IndexScan(%s.%s)", ri.rel.Alias, ix.Name)
		node.Prop = plan.Props{EstRows: ri.card, EstCost: cost, Signature: ri.signature}
		cand := entry{set: set, cols: cols, rows: ri.card, node: node, cost: cost}
		bestIndex = &cand
		if cost < best.cost {
			best = cand
		}
	}
	if o.Opt.ForceIndexScans && bestIndex != nil {
		return *bestIndex
	}
	return best
}

// OptimizeForceIndex plans with access paths pinned to index scans wherever
// one applies — the fragile policy the smoothness ablation compares against.
func (o *Optimizer) OptimizeForceIndex(q *plan.Query, params []types.Value) (plan.Node, error) {
	saved := o.Opt
	o.Opt.ForceIndexScans = true
	defer func() { o.Opt = saved }()
	return o.Optimize(q, params)
}

func fromEstimatePercentile(sel, evidence, p float64) float64 {
	d := statsFromEstimate(sel, evidence)
	return d.Percentile(p)
}

// ---------- joins ----------

// joinCandidates builds every admissible physical join of two entries.
func (o *Optimizer) joinCandidates(qi *queryInfo, le, re entry) []entry {
	set := le.set | re.set
	outRows := o.cardOfSet(qi, set)
	cols := append(append([]int{}, le.cols...), re.cols...)
	outSchema := schemaFor(qi, cols)

	// Partition applicable predicates into equi keys and residuals.
	var leftKeys, rightKeys []int // child-local indexes
	var residuals []expr.Expr
	var equiRight []int // combined col of the right side per key (for index NL)
	for _, jp := range qi.preds {
		if jp.mask&set != jp.mask || jp.mask&le.set == 0 || jp.mask&re.set == 0 {
			continue
		}
		if jp.equi {
			lcol, rcol := jp.leftCol, jp.rightCol
			if indexOf(le.cols, lcol) < 0 {
				lcol, rcol = rcol, lcol
			}
			li, rix := indexOf(le.cols, lcol), indexOf(re.cols, rcol)
			if li >= 0 && rix >= 0 {
				leftKeys = append(leftKeys, li)
				rightKeys = append(rightKeys, rix)
				equiRight = append(equiRight, rcol)
				continue
			}
		}
		residuals = append(residuals, remap(jp.cond, cols))
	}
	residual := expr.AndAll(residuals)
	sig := qi.joinSignature(set)

	mk := func(alg plan.JoinAlg, cost float64) entry {
		j := &plan.JoinNode{Alg: alg, Type: plan.Inner, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: residual}
		j.Kids = []plan.Node{le.node, re.node}
		j.Out = outSchema
		j.Title = alg.String()
		j.Prop = plan.Props{EstRows: outRows, EstCost: cost, Signature: sig}
		return entry{set: set, node: j, cols: cols, cost: cost, rows: outRows}
	}

	var out []entry
	hasEqui := len(leftKeys) > 0
	if o.Opt.GJoinOnly {
		if hasEqui {
			c := le.cost + re.cost + o.costGJoin(le.rows, re.rows, outRows)
			out = append(out, mk(plan.JoinGeneral, c))
		} else {
			c := le.cost + re.cost + o.costNLJoin(le.rows, re.rows, outRows)
			out = append(out, mk(plan.JoinNL, c))
		}
		return out
	}
	if hasEqui && !o.Opt.DisableHash {
		c := le.cost + re.cost + o.costHashJoin(le.rows, re.rows, outRows)
		out = append(out, mk(plan.JoinHash, c))
	}
	if hasEqui && !o.Opt.DisableMerge {
		c := le.cost + re.cost + o.costMergeJoin(le.rows, re.rows, outRows)
		out = append(out, mk(plan.JoinMerge, c))
	}
	if !o.Opt.DisableNL {
		c := le.cost + re.cost + o.costNLJoin(le.rows, re.rows, outRows)
		out = append(out, mk(plan.JoinNL, c))
	}
	if hasEqui && !o.Opt.DisableIndexNL && popcount(re.set) == 1 {
		if cand, ok := o.indexNLCandidate(qi, le, re, leftKeys, equiRight, residual, outSchema, cols, outRows, sig); ok {
			out = append(out, cand)
		}
	}
	return out
}

// indexNLCandidate builds an index nested-loop join when the right side is
// a single base relation with an index on one of the equi-join columns.
func (o *Optimizer) indexNLCandidate(qi *queryInfo, le, re entry, leftKeys, equiRight []int, residual expr.Expr, outSchema types.Schema, cols []int, outRows float64, sig string) (entry, bool) {
	ri := qi.rels[trailingRel(re.set)]
	if ri.rel.Table == nil {
		return entry{}, false
	}
	for k, rcol := range equiRight {
		local := rcol - ri.offset
		ix := ri.rel.Table.IndexOn(local)
		if ix == nil {
			continue
		}
		// All right-side filters plus the non-probe join preds run as
		// residual after the probe, over the join's output: residual is
		// there already, the filters come from table coordinates, and an
		// extra key pair sits where each side's cols put it.
		var res []expr.Expr
		if residual != nil {
			res = append(res, residual)
		}
		for _, f := range ri.filters {
			res = append(res, remap(expr.ShiftColumns(f, ri.offset), cols))
		}
		for k2 := range leftKeys {
			if k2 == k {
				continue
			}
			l, r := leftKeys[k2], len(le.cols)+indexOf(re.cols, equiRight[k2])
			res = append(res, &expr.Bin{Op: expr.OpEQ,
				L: &expr.Col{Index: l, Typ: outSchema[l].Kind, Name: outSchema[l].QualifiedName()},
				R: &expr.Col{Index: r, Typ: outSchema[r].Kind, Name: outSchema[r].QualifiedName()},
			})
		}
		fullRes := expr.AndAll(res)
		cs := ri.rel.Table.Stats.ColStats(local)
		ndv := math.Max(1, ri.rel.Rows/100)
		if cs != nil && cs.NDV > 0 {
			ndv = cs.NDV
		}
		matchesPerRow := ri.rel.Rows / ndv
		cost := le.cost + o.costIndexNLJoin(le.rows, matchesPerRow, float64(ix.Tree.Height()), outRows)
		j := &plan.IndexJoinNode{
			Type: plan.Inner, Table: ri.rel.Table, Alias: ri.rel.Alias, Index: ix, Cols: ri.cols,
			LeftKeys: []int{leftKeys[k]}, Residual: fullRes,
		}
		j.Kids = []plan.Node{le.node}
		j.Out = outSchema
		j.Title = fmt.Sprintf("IndexNLJoin(%s.%s)", ri.rel.Alias, ix.Name)
		j.Prop = plan.Props{EstRows: outRows, EstCost: cost, Signature: sig}
		return entry{set: le.set | re.set, node: j, cols: cols, cost: cost, rows: outRows}, true
	}
	return entry{}, false
}

// ---------- finishing: outer joins, aggregation, projection, order ----------

// need marks the combined-schema columns the block mentions (nil = all), to
// which the outer-joined relations' scans are narrowed.
func (o *Optimizer) finish(q *plan.Query, core entry, need []bool) (plan.Node, error) {
	node := core.node
	cols := core.cols
	rows := core.rows
	cost := core.cost

	// Outer joins in syntax order.
	for _, lj := range q.LeftJoins {
		var err error
		node, cols, rows, cost, err = o.applyLeftJoin(node, cols, rows, cost, lj, need)
		if err != nil {
			return nil, err
		}
	}

	colmap := invert(cols)

	if q.Grouped {
		groupExprs := make([]expr.Expr, len(q.GroupBy))
		outSchema := types.Schema{}
		for i, g := range q.GroupBy {
			groupExprs[i] = expr.RemapColumns(g, colmap)
			outSchema = append(outSchema, types.Column{Name: g.String(), Kind: g.Kind()})
		}
		aggs := make([]plan.AggSpec, len(q.Aggs))
		for i, a := range q.Aggs {
			aggs[i] = a
			if a.Arg != nil {
				aggs[i].Arg = expr.RemapColumns(a.Arg, colmap)
			}
			kind := types.KindFloat
			if a.Func == "COUNT" {
				kind = types.KindInt
			}
			outSchema = append(outSchema, types.Column{Name: a.Name, Kind: kind})
		}
		groups := estimateGroups(rows, len(groupExprs))
		ag := &plan.AggNode{Alg: plan.AggHash, GroupExprs: groupExprs, Aggs: aggs}
		ag.Kids = []plan.Node{node}
		ag.Out = outSchema
		ag.Title = "HashAggregate"
		cost += o.costHashAgg(rows, groups)
		ag.Prop = plan.Props{EstRows: groups, EstCost: cost}
		node = ag
		rows = groups
		// After aggregation, columns are positional; identity mapping.
		colmap = nil
		if q.Having != nil {
			f := &plan.FilterNode{Pred: q.Having}
			f.Kids = []plan.Node{node}
			f.Out = node.Schema()
			f.Title = "Having"
			rows = rows / 3
			cost += rows * o.CM.RowCPU
			f.Prop = plan.Props{EstRows: rows, EstCost: cost}
			node = f
		}
	}

	// Projection.
	projExprs := make([]expr.Expr, len(q.Projections))
	outSchema := types.Schema{}
	for i, p := range q.Projections {
		pe := p
		if colmap != nil {
			pe = expr.RemapColumns(p, colmap)
		}
		projExprs[i] = pe
		outSchema = append(outSchema, types.Column{Name: q.ProjNames[i], Kind: pe.Kind()})
	}
	pr := &plan.ProjectNode{Exprs: projExprs}
	pr.Kids = []plan.Node{node}
	pr.Out = outSchema
	pr.Title = "Project"
	cost += rows * o.CM.RowCPU
	pr.Prop = plan.Props{EstRows: rows, EstCost: cost}
	node = pr

	if q.Distinct {
		d := &plan.DistinctNode{}
		d.Kids = []plan.Node{node}
		d.Out = node.Schema()
		d.Title = "Distinct"
		rows = estimateGroups(rows, len(projExprs))
		cost += o.costHashAgg(rows, rows)
		d.Prop = plan.Props{EstRows: rows, EstCost: cost}
		node = d
	}

	if len(q.OrderBy) > 0 {
		s := &plan.SortNode{Keys: q.OrderBy}
		s.Kids = []plan.Node{node}
		s.Out = node.Schema()
		s.Title = "Sort"
		cost += o.costSort(rows)
		s.Prop = plan.Props{EstRows: rows, EstCost: cost}
		node = s
	}

	if q.Limit >= 0 {
		l := &plan.LimitNode{N: q.Limit, Skip: q.Offset}
		l.Kids = []plan.Node{node}
		l.Out = node.Schema()
		l.Title = fmt.Sprintf("Limit(%d)", q.Limit)
		lim := math.Min(rows, float64(q.Limit))
		l.Prop = plan.Props{EstRows: lim, EstCost: cost}
		node = l
	}
	return node, nil
}

func (o *Optimizer) applyLeftJoin(node plan.Node, cols []int, rows, cost float64, lj plan.LeftJoin, need []bool) (plan.Node, []int, float64, float64, error) {
	r := lj.Rel
	br := BaseRelFromTable(r.Table, r.Alias)
	ri := &relInfo{rel: br, offset: r.Offset}
	ri.narrow(need)
	scan := &plan.ScanNode{Table: r.Table, Alias: r.Alias, Cols: ri.cols}
	scan.Out = ri.out
	scan.Title = fmt.Sprintf("SeqScan(%s)", r.Alias)
	scanCost := o.costSeqScan(br.Pages, br.Rows)
	scan.Prop = plan.Props{EstRows: br.Rows, EstCost: scanCost}

	newCols := append(append([]int{}, cols...), ri.ccols...)
	outSchema := node.Schema().Concat(ri.out)

	var leftKeys, rightKeys []int
	var residuals []expr.Expr
	for _, c := range expr.Conjuncts(lj.On) {
		if b, ok := c.(*expr.Bin); ok && b.Op == expr.OpEQ {
			lc, lok := b.L.(*expr.Col)
			rc, rok := b.R.(*expr.Col)
			if lok && rok {
				if isInRange(rc.Index, r.Offset, len(br.Schema)) && !isInRange(lc.Index, r.Offset, len(br.Schema)) {
					if li := indexOf(cols, lc.Index); li >= 0 {
						leftKeys = append(leftKeys, li)
						rightKeys = append(rightKeys, indexOf(ri.ccols, rc.Index))
						continue
					}
				}
				if isInRange(lc.Index, r.Offset, len(br.Schema)) && !isInRange(rc.Index, r.Offset, len(br.Schema)) {
					if li := indexOf(cols, rc.Index); li >= 0 {
						leftKeys = append(leftKeys, li)
						rightKeys = append(rightKeys, indexOf(ri.ccols, lc.Index))
						continue
					}
				}
			}
		}
		residuals = append(residuals, remap(c, newCols))
	}
	alg := plan.JoinHash
	if len(leftKeys) == 0 {
		alg = plan.JoinNL
	}
	sel := 0.01
	outRows := math.Max(rows, rows*br.Rows*sel)
	var jcost float64
	if alg == plan.JoinHash {
		jcost = o.costHashJoin(rows, br.Rows, outRows)
	} else {
		jcost = o.costNLJoin(rows, br.Rows, outRows)
	}
	j := &plan.JoinNode{Alg: alg, Type: plan.LeftOuter, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: expr.AndAll(residuals)}
	j.Kids = []plan.Node{node, scan}
	j.Out = outSchema
	j.Title = "Left" + alg.String()
	total := cost + scanCost + jcost
	j.Prop = plan.Props{EstRows: outRows, EstCost: total}
	return j, newCols, outRows, total, nil
}

// ---------- helpers ----------

func schemaFor(qi *queryInfo, cols []int) types.Schema {
	out := make(types.Schema, len(cols))
	for i, c := range cols {
		out[i] = qi.combined[c]
	}
	return out
}

func indexOf(cols []int, c int) int {
	for i, v := range cols {
		if v == c {
			return i
		}
	}
	return -1
}

func invert(cols []int) map[int]int {
	m := make(map[int]int, len(cols))
	for local, combined := range cols {
		m[combined] = local
	}
	return m
}

// remap rewrites a combined-schema expression to child-local indexes.
func remap(e expr.Expr, cols []int) expr.Expr {
	return expr.RemapColumns(e, invert(cols))
}

func isInRange(col, offset, width int) bool {
	return col >= offset && col < offset+width
}

func seq(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

func estimateGroups(rows float64, keys int) float64 {
	if keys == 0 {
		return 1
	}
	g := rows / 10
	if g < 1 {
		g = 1
	}
	return g
}

// joinSignature names the join of a relation set for LEO feedback and POP
// checkpoints. Every (left, right) split of the set asks for it, so it is
// built once per set.
func (qi *queryInfo) joinSignature(set uint64) string {
	if sig, ok := qi.sigs[set]; ok {
		return sig
	}
	var names []string
	for i, ri := range qi.rels {
		if set&(1<<uint(i)) != 0 {
			names = append(names, ri.rel.Alias)
		}
	}
	sort.Strings(names)
	var preds []string
	for _, jp := range qi.preds {
		if jp.mask&set == jp.mask {
			preds = append(preds, expr.EquivalentForm(jp.cond))
		}
	}
	sort.Strings(preds)
	sig := "join{" + strings.Join(names, ",") + "|" + strings.Join(preds, "&") + "}"
	if qi.sigs == nil {
		qi.sigs = map[uint64]string{}
	}
	qi.sigs[set] = sig
	return sig
}
