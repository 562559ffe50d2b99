package opt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rqp/internal/catalog"
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
// plan root. Every node emits only what something above it reads (liveness):
// rows are as wide as what is left of the query, from the access path up.
func (o *Optimizer) Optimize(q *plan.Query, params []types.Value) (plan.Node, error) {
	rels := BaseRelsFromQuery(q)
	lv := blockLiveness(q)
	qi, err := o.analyze(rels, q.Conjuncts, params, lv)
	if err != nil {
		return nil, err
	}
	best, err := o.enumerate(qi)
	if err != nil {
		return nil, err
	}
	return o.finish(q, best, lv)
}

// liveness is the one rule every node's output width follows. Per column of
// the combined schema (left-joined relations included) it holds who reads the
// column, as relation bits: the relations of each conjunct that spans more
// than one (bit i for core relation i; analyze adds these), ljBit for a left
// join's ON, liveAbove for the block above the joins — group keys and
// aggregate arguments or, ungrouped, the projections (HAVING, ORDER BY and a
// grouped block's projections name the aggregate's output, no base column).
// A column is live out of a set of relations while one of its readers has a
// bit outside the set: a function of the set alone, whatever plan computes
// it. A conjunct over one relation never marks anything, because scans test
// their filters in table coordinates before they project. nil — no query
// block: POP, Rio — means everything is live everywhere.
type liveness []uint64

const liveAbove = uint64(1) << 63

// ljBit is left join k's bit, after the n core relations. Joins past the
// word's end share liveAbove: what only they read is never shed.
func ljBit(n, k int) uint64 {
	if n+k < 63 {
		return 1 << uint(n+k)
	}
	return liveAbove
}

func (lv liveness) out(set uint64, col int) bool { return lv == nil || lv[col]&^set != 0 }

// project lists the positions of concat — a join's left‖right columns, a
// scan's table — that are live out of set, and the columns found there,
// compacted into concat itself (the caller gives it away); nil and all of
// concat when every one is live.
func (lv liveness) project(set uint64, concat []int) (pos, cols []int) {
	k := 0
	for _, c := range concat {
		if lv.out(set, c) {
			k++
		}
	}
	if k == len(concat) {
		return nil, concat
	}
	pos, cols = make([]int, 0, k), concat[:0]
	for i, c := range concat {
		if lv.out(set, c) {
			pos, cols = append(pos, i), append(cols, c)
		}
	}
	return pos, cols
}

// mark returns the visitor that records bit as a reader of every column it
// meets.
func (lv liveness) mark(bit uint64) func(expr.Expr) bool {
	return func(n expr.Expr) bool {
		if c, ok := n.(*expr.Col); ok {
			lv[c.Index] |= bit
		}
		return true
	}
}

func blockLiveness(q *plan.Query) liveness {
	lv := make(liveness, len(q.Combined))
	above := lv.mark(liveAbove)
	if q.Grouped {
		for _, g := range q.GroupBy {
			g.Walk(above)
		}
		for _, a := range q.Aggs {
			if a.Arg != nil {
				a.Arg.Walk(above)
			}
		}
	} else {
		for _, p := range q.Projections {
			p.Walk(above)
		}
	}
	for k, lj := range q.LeftJoins {
		if lj.On != nil {
			lj.On.Walk(lv.mark(ljBit(len(q.Rels), k)))
		}
	}
	return lv
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
		alts, n := o.priceJoins(qi, le, re)
		for _, a := range alts[:n] {
			if cur, ok := dp[set]; !ok || a.better(le, re, cur) {
				dp[set] = o.buildJoin(qi, le, re, a)
			}
		}
	}
}

// tieBand is the relative cost difference below which better calls two
// candidates equal.
const tieBand = 1e-4

// better orders a priced join of le and re against the set's incumbent:
// strictly cheaper wins; near-ties (within 0.01%) break on the canonical plan
// signature so that semantically equivalent queries — e.g. commuted FROM
// lists — always produce the same plan (the equivalent-query robustness
// requirement).
func (a joinAlt) better(le, re, cur entry) bool {
	diff := a.cost - cur.cost
	tol := tieBand * (a.cost + cur.cost + 1)
	if diff < -tol {
		return true
	}
	if diff > tol {
		return false
	}
	// What plan.PlanSignature would say of the join, were it built.
	sig := a.title() + "[" + plan.PlanSignature(le.node)
	if a.alg != plan.JoinIndexNL {
		sig += " " + plan.PlanSignature(re.node)
	}
	return sig+"]" < plan.PlanSignature(cur.node)
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

// colScanCost prices a columnar scan of rel under its table-local filters,
// yielding card rows, or reports false when the table carries no snapshot.
// Pushable col⋈const conjuncts evaluate on encoded blocks and enable
// zone-map skipping, credited into the estimate by costColScan; the pages
// written since the snapshot was built are read from the heap, charged into
// it.
func (o *Optimizer) colScanCost(rel *BaseRel, filters []expr.Expr, params []types.Value, card float64) (float64, bool) {
	cs := rel.Table.Col()
	if cs == nil {
		return 0, false
	}
	npushed := 0
	for _, f := range filters {
		if _, _, v, ok := expr.SplitColConst(f, params); ok && !v.IsNull() {
			npushed++
		}
	}
	var buf [32]int32 // counted, not kept: most deltas fit without an allocation
	changed, pages := rel.Table.Heap.Changed(cs.Mark(), buf[:0])
	delta := len(changed) + pages - (len(cs.Mark().PageStart) - 1)
	return o.costColScan(float64(cs.NumBlocks()), float64(cs.TotalPages(nil)), rel.Rows, card, npushed, float64(delta), float64(pages)), true
}

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
	// carries a column-store snapshot.
	if o.Opt.Columnar {
		if cost, ok := o.colScanCost(&ri.rel, ri.filters, qi.params, ri.card); ok && cost < best.cost {
			cscan := &plan.ScanNode{Table: ri.rel.Table, Alias: ri.rel.Alias, Filter: filter, Cols: ri.cols, Columnar: true}
			cscan.Out = ri.out
			cscan.Title = fmt.Sprintf("ColScan(%s)", ri.rel.Alias)
			cscan.Prop = plan.Props{EstRows: ri.card, EstCost: cost, Signature: ri.signature}
			best.node = cscan
			best.cost = cost
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

// joinAlt is one priced way to join two entries. Pricing allocates nothing:
// only an alternative that beats its relation set's incumbent is built.
type joinAlt struct {
	alg  plan.JoinAlg
	cost float64
	rows float64 // the join's output cardinality
	// JoinIndexNL: the inner relation, its index, and which of qi.preds is
	// the equi-join pair that probes it.
	inner *relInfo
	ix    *catalog.Index
	key   int
}

func (a joinAlt) title() string {
	if a.alg == plan.JoinIndexNL {
		return fmt.Sprintf("IndexNLJoin(%s.%s)", a.inner.rel.Alias, a.ix.Name)
	}
	return a.alg.String()
}

// sides says how jp bears on the join of le with re. applies: it lies inside
// their union and inside neither, so this join tests it — as an equi key when
// it equates a column le emits (l) with one re emits (r), as a residual
// otherwise (l, r < 0).
func (jp *joinPred) sides(le, re entry) (applies bool, l, r int) {
	if jp.mask&(le.set|re.set) != jp.mask || jp.mask&le.set == 0 || jp.mask&re.set == 0 {
		return false, -1, -1
	}
	if l, r = jp.leftCol, jp.rightCol; jp.equi {
		if indexOf(le.cols, l) < 0 {
			l, r = r, l
		}
		if indexOf(le.cols, l) >= 0 && indexOf(re.cols, r) >= 0 {
			return true, l, r
		}
	}
	return true, -1, -1
}

// priceJoins costs every admissible physical join of two entries, in the
// fixed order hash, merge, nested-loop, index nested-loop.
func (o *Optimizer) priceJoins(qi *queryInfo, le, re entry) (alts [4]joinAlt, n int) {
	rows := o.cardOfSet(qi, le.set|re.set)
	add := func(a joinAlt, cost float64) {
		a.cost, a.rows = cost, rows
		alts[n] = a
		n++
	}
	// An index join wants the right side to be one base table with an index on
	// an equi-join column: the first such column wins.
	inl := joinAlt{alg: plan.JoinIndexNL}
	if ri := qi.rels[trailingRel(re.set)]; popcount(re.set) == 1 && ri.rel.Table != nil && !o.Opt.DisableIndexNL {
		inl.inner = ri
	}
	hasEqui := false
	for i := range qi.preds {
		if applies, _, r := qi.preds[i].sides(le, re); applies && r >= 0 {
			hasEqui = true
			if inl.inner != nil && inl.ix == nil {
				inl.ix, inl.key = inl.inner.rel.Table.IndexOn(r-inl.inner.offset), i
			}
		}
	}
	both := le.cost + re.cost
	if o.Opt.GJoinOnly {
		if hasEqui {
			add(joinAlt{alg: plan.JoinGeneral}, both+o.costGJoin(le.rows, re.rows, rows))
		} else {
			add(joinAlt{alg: plan.JoinNL}, both+o.costNLJoin(le.rows, re.rows, rows))
		}
		return alts, n
	}
	if hasEqui && !o.Opt.DisableHash {
		add(joinAlt{alg: plan.JoinHash}, both+o.costHashJoin(le.rows, re.rows, rows))
	}
	if hasEqui && !o.Opt.DisableMerge {
		add(joinAlt{alg: plan.JoinMerge}, both+o.costMergeJoin(le.rows, re.rows, rows))
	}
	if !o.Opt.DisableNL {
		add(joinAlt{alg: plan.JoinNL}, both+o.costNLJoin(le.rows, re.rows, rows))
	}
	if ri := inl.inner; inl.ix != nil {
		ndv := math.Max(1, ri.rel.Rows/100)
		if cs := ri.rel.Table.Stats.ColStats(inl.ix.Cols[0]); cs != nil && cs.NDV > 0 {
			ndv = cs.NDV
		}
		add(inl, le.cost+o.costIndexNLJoin(le.rows, ri.rel.Rows/ndv, float64(inl.ix.Tree.Height()), rows))
	}
	return alts, n
}

// buildJoin builds the plan node of a priced join. Equi keys index the two
// children, the residual numbers their concatenation left‖right, and the node
// emits what of that is live out of the joined set.
func (o *Optimizer) buildJoin(qi *queryInfo, le, re entry, a joinAlt) entry {
	out := entry{set: le.set | re.set, cost: a.cost, rows: a.rows}
	concat := append(append(make([]int, 0, len(le.cols)+len(re.cols)), le.cols...), re.cols...)
	var leftKeys, rightKeys []int // child-local indexes
	var residuals []expr.Expr
	for i := range qi.preds {
		applies, l, r := qi.preds[i].sides(le, re)
		if !applies {
			continue
		}
		// An index join probes with one key pair; any other is one more
		// predicate over its output.
		if l >= 0 && (a.alg != plan.JoinIndexNL || i == a.key) {
			leftKeys, rightKeys = append(leftKeys, indexOf(le.cols, l)), append(rightKeys, indexOf(re.cols, r))
		} else {
			residuals = append(residuals, remap(qi.preds[i].cond, concat))
		}
	}
	var base *plan.Base
	if ri := a.inner; a.alg == plan.JoinIndexNL {
		// The inner relation's own filters test the fetched row, as an index
		// scan's do. The join emits all of left‖Cols: whatever of that is dead
		// is shed by the join above.
		j := &plan.IndexJoinNode{Type: plan.Inner, Table: ri.rel.Table, Alias: ri.rel.Alias, Index: a.ix, Cols: ri.cols,
			LeftKeys: leftKeys, Filter: expr.AndAll(ri.filters), Residual: expr.AndAll(residuals)}
		j.Kids = []plan.Node{le.node}
		out.node, out.cols, base = j, concat, &j.Base
	} else {
		j := &plan.JoinNode{Alg: a.alg, Type: plan.Inner, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: expr.AndAll(residuals)}
		j.Kids = []plan.Node{le.node, re.node}
		j.Cols, out.cols = qi.live.project(out.set, concat)
		out.node, base = j, &j.Base
	}
	base.Out, base.Title = schemaFor(qi.combined, out.cols), a.title()
	base.Prop = plan.Props{EstRows: a.rows, EstCost: a.cost, Signature: qi.joinSignature(out.set)}
	return out
}

// ---------- finishing: outer joins, aggregation, projection, order ----------

// lv is the block's liveness (nil = all): each outer-joined relation's scan
// emits what anything reads, each outer join what is live once it has run.
func (o *Optimizer) finish(q *plan.Query, core entry, lv liveness) (plan.Node, error) {
	// Outer joins in syntax order.
	for k := range q.LeftJoins {
		core = o.applyLeftJoin(q, k, core, lv)
	}
	node, cols, rows, cost := core.node, core.cols, core.rows, core.cost

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
		ag := &plan.AggNode{GroupExprs: groupExprs, Aggs: aggs}
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

// applyLeftJoin joins in q.LeftJoins[k]; in.set holds every relation joined
// so far, which is what the join's output is live out of.
func (o *Optimizer) applyLeftJoin(q *plan.Query, k int, in entry, lv liveness) entry {
	lj, cols, rows := q.LeftJoins[k], in.cols, in.rows
	r := lj.Rel
	br := BaseRelFromTable(r.Table, r.Alias)
	ri := &relInfo{rel: br, offset: r.Offset}
	ri.narrow(lv, 0) // nothing is pushed into this scan: it emits whatever has a reader
	scan := &plan.ScanNode{Table: r.Table, Alias: r.Alias, Cols: ri.cols}
	scan.Out = ri.out
	scan.Title = fmt.Sprintf("SeqScan(%s)", r.Alias)
	scanCost := o.costSeqScan(br.Pages, br.Rows)
	scan.Prop = plan.Props{EstRows: br.Rows, EstCost: scanCost}

	newCols := append(append([]int{}, cols...), ri.ccols...)

	var leftKeys, rightKeys []int
	var residuals []expr.Expr
	for _, c := range expr.Conjuncts(lj.On) {
		if b, ok := c.(*expr.Bin); ok && b.Op == expr.OpEQ {
			lc, lok := b.L.(*expr.Col)
			rc, rok := b.R.(*expr.Col)
			if lok && rok {
				if isInRange(lc.Index, r.Offset, len(br.Schema)) {
					lc, rc = rc, lc // rc is the joined relation's side
				}
				if li := indexOf(cols, lc.Index); li >= 0 && isInRange(rc.Index, r.Offset, len(br.Schema)) {
					leftKeys = append(leftKeys, li)
					rightKeys = append(rightKeys, indexOf(ri.ccols, rc.Index))
					continue
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
	out := entry{set: in.set | ljBit(len(q.Rels), k)&^liveAbove, rows: outRows, cost: in.cost + scanCost + jcost}
	j := &plan.JoinNode{Alg: alg, Type: plan.LeftOuter, LeftKeys: leftKeys, RightKeys: rightKeys, Residual: expr.AndAll(residuals)}
	j.Kids = []plan.Node{in.node, scan}
	j.Cols, out.cols = lv.project(out.set, newCols)
	j.Out = schemaFor(q.Combined, out.cols)
	j.Title = "Left" + alg.String()
	j.Prop = plan.Props{EstRows: outRows, EstCost: out.cost}
	out.node = j
	return out
}

// ---------- helpers ----------

func schemaFor(combined types.Schema, cols []int) types.Schema {
	out := make(types.Schema, len(cols))
	for i, c := range cols {
		out[i] = combined[c]
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
