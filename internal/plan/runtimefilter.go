package plan

import "rqp/internal/expr"

// PlanRuntimeFilters annotates a physical plan with runtime join filter
// sites: every inner hash join becomes a producer (it derives one Bloom +
// min/max filter per equi-join key from its drained build side) and, for
// each key, the pass walks down the probe (left) subtree looking for a base
// scan the key column traces back to. When one is found the scan is
// annotated as the consumer, so at execution time it drops rows whose key
// cannot possibly appear in the build — before they pay full per-row cost.
//
// The descent is deliberately conservative, crossing only operators where
// dropping a never-joining row early provably cannot change results:
//
//   - Filter: schema-preserving; a dropped row fails the upper join anyway.
//   - Project: only through a plain column reference (the filter tests the
//     same value either way).
//   - Inner join, probe side: a probe row's columns pass through to the
//     output, and dropping it removes only join outputs the upper filter
//     would reject.
//
// Limit (dropping changes which rows fill the quota), Sort, Distinct and
// Aggregate all stop the descent. So does a temp scan, POP's materialised
// intermediate: POP's re-planned remainders take no runtime filters.
//
// Annotation is idempotent: the pass clears every producer/consumer
// annotation first and reassigns IDs in deterministic pre-order, so
// re-planning a cached plan recomputes identical wiring. Returns the number
// of filters planted.
func PlanRuntimeFilters(root Node) int {
	Walk(root, func(n Node) {
		switch v := n.(type) {
		case *JoinNode:
			v.RFilters = nil
		case *ScanNode:
			v.RFConsume = nil
		case *IndexScanNode:
			v.RFConsume = nil
		}
	})
	nextID, planted := 0, 0
	var rec func(Node)
	rec = func(n Node) {
		if j, ok := n.(*JoinNode); ok && j.Alg == JoinHash && j.Type == Inner {
			for ord := range j.LeftKeys {
				site, col := filterSite(j.Kids[0], j.LeftKeys[ord])
				if site != nil {
					id := nextID
					nextID++
					j.RFilters = append(j.RFilters, RFilterSpec{ID: id, Col: ord})
					sp := RFilterSpec{ID: id, Col: col}
					switch s := site.(type) {
					case *ScanNode:
						s.RFConsume = append(s.RFConsume, sp)
					case *IndexScanNode:
						s.RFConsume = append(s.RFConsume, sp)
					}
					planted++
				}
			}
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(root)
	return planted
}

// filterSite traces column col of node n's output down to a base scan that
// may safely test it against a runtime filter, returning the scan and the
// column's ordinal in the scan's output. Returns nil when the trace dead-
// ends at an operator the descent must not cross.
func filterSite(n Node, col int) (Node, int) {
	switch v := n.(type) {
	case *ScanNode, *IndexScanNode:
		return n, col
	case *FilterNode:
		return filterSite(v.Kids[0], col)
	case *ProjectNode:
		if c, ok := v.Exprs[col].(*expr.Col); ok {
			return filterSite(v.Kids[0], c.Index)
		}
	case *JoinNode:
		// A join emits its probe (left) child's columns before the build's;
		// only inner joins are crossed, conservatively leaving outer joins as
		// descent barriers.
		if col = TableCol(v.Cols, col); v.Type == Inner && col < len(v.Kids[0].Schema()) {
			return filterSite(v.Kids[0], col)
		}
	}
	return nil, 0
}
