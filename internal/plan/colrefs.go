package plan

import (
	"sort"

	"rqp/internal/expr"
)

// MarkColumnRefs computes, for every ScanNode, which of the table's columns
// the query above it actually references, and stores the sorted result in
// ScanNode.NeedCols (nil when every column is needed). Columnar scans use
// this to decode only referenced columns, leaving the rest NULL — which is
// safe exactly because nothing above the scan reads them.
//
// The pass walks top-down, propagating a needed-column set (nil = all) in
// each node's *output* schema coordinates and translating it into its
// children's coordinates. Any operator the pass does not understand
// conservatively demands all columns. The pass is idempotent; like the
// other marking passes it writes to the tree, so the engine runs it once
// per plan, before the plan cache can share the tree. Returns the number of
// scans that got a narrowed column set.
func MarkColumnRefs(root Node) int {
	narrowed := 0
	var rec func(Node, map[int]bool)
	rec = func(nd Node, need map[int]bool) {
		switch v := nd.(type) {
		case *ScanNode:
			v.NeedCols = nil
			if need == nil {
				return
			}
			// The scan applies its own filter and runtime filters, so their
			// columns are needed even when the parent discards them.
			merge(need, expr.ColumnsUsed(v.Filter))
			for _, spec := range v.RFConsume {
				need[spec.Col] = true
			}
			if len(need) >= len(v.Out) {
				return
			}
			cols := make([]int, 0, len(need))
			for c := range need {
				if c >= 0 && c < len(v.Out) {
					cols = append(cols, c)
				}
			}
			sort.Ints(cols)
			v.NeedCols = cols
			narrowed++
		case *ProjectNode:
			child := map[int]bool{}
			for i, e := range v.Exprs {
				if need == nil || need[i] {
					merge(child, expr.ColumnsUsed(e))
				}
			}
			rec(v.Kids[0], child)
		case *FilterNode:
			child := clone(need, len(v.Kids[0].Schema()))
			if child != nil {
				merge(child, expr.ColumnsUsed(v.Pred))
			}
			rec(v.Kids[0], child)
		case *JoinNode:
			lw := len(v.Kids[0].Schema())
			var ln, rn map[int]bool
			if need != nil {
				ln, rn = map[int]bool{}, map[int]bool{}
				for c := range need {
					if c < lw {
						ln[c] = true
					} else {
						rn[c-lw] = true
					}
				}
				for _, k := range v.LeftKeys {
					ln[k] = true
				}
				for _, k := range v.RightKeys {
					rn[k] = true
				}
				for c := range expr.ColumnsUsed(v.Residual) {
					if c < lw {
						ln[c] = true
					} else {
						rn[c-lw] = true
					}
				}
			}
			rec(v.Kids[0], ln)
			rec(v.Kids[1], rn)
		case *IndexJoinNode:
			// The index probe reconstructs full heap rows and the residual
			// spans the concatenated schema; conservatively demand all
			// outer columns.
			rec(v.Kids[0], nil)
		case *SortNode:
			child := clone(need, len(v.Kids[0].Schema()))
			if child != nil {
				for _, k := range v.Keys {
					child[k.Col] = true
				}
			}
			rec(v.Kids[0], child)
		case *AggNode:
			// Output schema (groups then aggregates) differs from the
			// child's; the child needs exactly the columns the group and
			// aggregate expressions read.
			child := map[int]bool{}
			for _, e := range v.GroupExprs {
				merge(child, expr.ColumnsUsed(e))
			}
			for _, a := range v.Aggs {
				if a.Arg != nil {
					merge(child, expr.ColumnsUsed(a.Arg))
				}
			}
			rec(v.Kids[0], child)
		case *LimitNode, *MaterializeNode, *CheckNode:
			for _, c := range nd.Children() {
				rec(c, clone(need, len(c.Schema())))
			}
		default:
			// DistinctNode compares full rows; unknown operators get the
			// conservative everything-referenced treatment.
			for _, c := range nd.Children() {
				rec(c, nil)
			}
		}
	}
	rec(root, nil)
	return narrowed
}

func merge(dst map[int]bool, src map[int]bool) {
	for c := range src {
		dst[c] = true
	}
}

// clone copies a needed set so siblings cannot alias each other's edits;
// nil (= all columns) stays nil.
func clone(need map[int]bool, _ int) map[int]bool {
	if need == nil {
		return nil
	}
	out := make(map[int]bool, len(need))
	for c := range need {
		out[c] = true
	}
	return out
}
