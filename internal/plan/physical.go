package plan

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// JoinAlg enumerates the physical join repertoire.
type JoinAlg uint8

// Join algorithms. GJoin is Graefe's generalized join, a single algorithm
// intended to replace the other three and thereby eliminate mistaken
// algorithm choices.
const (
	JoinHash JoinAlg = iota
	JoinMerge
	JoinNL
	JoinIndexNL
	JoinGeneral
)

// String returns the algorithm name.
func (a JoinAlg) String() string {
	switch a {
	case JoinHash:
		return "HashJoin"
	case JoinMerge:
		return "MergeJoin"
	case JoinNL:
		return "NestedLoopJoin"
	case JoinIndexNL:
		return "IndexNLJoin"
	case JoinGeneral:
		return "GJoin"
	}
	return "Join?"
}

// JoinAlgs is a set of join algorithms: 1<<a for each member a.
type JoinAlgs uint8

// Has reports whether a is in s.
func (s JoinAlgs) Has(a JoinAlg) bool { return s&(1<<a) != 0 }

// JoinType is inner or left outer.
type JoinType uint8

// Join types.
const (
	Inner JoinType = iota
	LeftOuter
)

// Props carries the optimizer's annotations on a node plus, after
// execution, the observed actual cardinality (the raw material for every
// cardinality-error robustness metric).
type Props struct {
	EstRows float64
	EstCost float64 // cumulative cost including children
	// actual is the observed cardinality plus one (zero until executed).
	// Atomic because the plan cache shares one tree between sessions: every
	// execution records into it while EXPLAIN and the q-error metrics read
	// it, and the last execution to finish wins.
	actual atomic.Int64
	// Signature identifies the logical subexpression this node computes: its
	// key in opt.Cards, where LEO learns and an estimate is replaced.
	Signature string
	// RFCredit is the cost-model credit this subtree was granted for
	// runtime join filters (set by opt.CreditRuntimeFilters; recorded so
	// re-crediting a cached plan can undo the previous credit first).
	RFCredit float64
}

// ActualRows returns the observed output cardinality of the node's latest
// execution, or -1 until it has executed.
func (p *Props) ActualRows() float64 { return float64(p.actual.Load() - 1) }

// SetActualRows records an execution's observed output cardinality (a
// negative n marks the node unexecuted again).
func (p *Props) SetActualRows(n float64) { p.actual.Store(int64(n) + 1) }

// RFilterSpec wires one runtime join filter between its producer and a
// consumer. On a JoinNode (producer) Col is the ordinal into RightKeys whose
// build-side key column feeds the filter; on a scan node (consumer) Col is
// the column of the scan's output schema tested against the filter. ID ties
// the two ends together at execution time.
type RFilterSpec struct {
	ID  int
	Col int
}

// Node is a physical plan operator description.
type Node interface {
	Schema() types.Schema
	Children() []Node
	Label() string
	Props() *Props
}

// Base provides shared Node plumbing.
type Base struct {
	Out   types.Schema
	Kids  []Node
	Prop  Props
	Title string
}

// Schema implements Node.
func (b *Base) Schema() types.Schema { return b.Out }

// Children implements Node.
func (b *Base) Children() []Node { return b.Kids }

// Props implements Node.
func (b *Base) Props() *Props { return &b.Prop }

// Label implements Node.
func (b *Base) Label() string { return b.Title }

// ScanNode is a full table scan with an optional pushed-down filter over the
// table's schema.
type ScanNode struct {
	Base
	Table  *catalog.Table
	Alias  string
	Filter expr.Expr // over table schema; nil = none
	// Cols lists the table columns the scan emits, ascending — those something
	// above the scan reads; Out is the matching narrow schema. Nil emits all
	// of them: the stored row itself. Filter, zone maps and index bounds stay
	// in table coordinates and are tested before the projection; everything
	// above the scan, RFConsume included, numbers the scan's output.
	Cols []int
	// RFConsume lists runtime join filters this scan tests rows against
	// (set by PlanRuntimeFilters).
	RFConsume []RFilterSpec
	// Columnar selects the column-store access path (set by the optimizer
	// when the table carries a columnar snapshot). The executor reads the
	// pages DML wrote since the snapshot was built from the heap, and scans
	// the heap whole when the table has no snapshot at all — results are
	// identical either way.
	Columnar bool
	// Decode lists, ascending, the table columns a heap scan decodes: Cols
	// — among them those its RFConsume filters test, which number the
	// scan's output — and the columns Filter reads (set by MarkDecode). Nil
	// decodes every column: so does a scan no marking pass saw.
	Decode []int
}

// PushedCmp is one `col ⋈ const` conjunct of a columnar scan's filter,
// lowered onto the column store: zone maps prune a block by it and the
// block's encoded form evaluates it.
type PushedCmp struct {
	Col  int
	Op   storage.CmpOp
	V    types.Value
	Expr expr.Expr // the conjunct itself
}

// PushDown splits a columnar scan's filter conjuncts under params: each
// `col ⋈ const` over one of the table's ncols columns, its constant bound and
// not NULL, is appended to pushed, every other conjunct to residual. never
// reports a `col ⋈ NULL` conjunct, which no row satisfies, so zone checks
// alone answer the scan. The executor splits here and so does the optimizer's
// estimate of the scan.
func PushDown(conjuncts []expr.Expr, params []types.Value, ncols int, pushed []PushedCmp, residual []expr.Expr) (_ []PushedCmp, _ []expr.Expr, never bool) {
	for _, cj := range conjuncts {
		col, op, v, ok := expr.SplitColConst(cj, params)
		switch {
		case !ok || col < 0 || col >= ncols:
			residual = append(residual, cj)
		case v.IsNull():
			never = true
		default: // storage.CmpOp lists the six comparisons in expr.Op's order
			pushed = append(pushed, PushedCmp{Col: col, Op: storage.CmpOp(op - expr.OpEQ), V: v, Expr: cj})
		}
	}
	return pushed, residual, never
}

// TableCol maps ordinal ord of a node's output to what it numbers in the
// node's input, given the node's Cols: a scan's table column, a join's
// position in left‖right.
func TableCol(cols []int, ord int) int {
	if cols == nil {
		return ord
	}
	return cols[ord]
}

// MarkDecode sets the Decode list of every scan under root. A list that is
// Cols itself shares its slice, so a plan whose filters read only columns it
// emits allocates nothing here.
func MarkDecode(root Node) {
	Walk(root, func(n Node) {
		if s, ok := n.(*ScanNode); ok {
			s.Decode = decodeCols(s)
		}
	})
}

// decodeCols is s's Decode list; nil, every column, also for a table too
// wide for the mask.
func decodeCols(s *ScanNode) []int {
	n := len(s.Table.Schema)
	if s.Cols == nil || n > 64 {
		return nil
	}
	var emit uint64
	for _, c := range s.Cols {
		emit |= 1 << c
	}
	need := emit
	if s.Filter != nil {
		s.Filter.Walk(func(e expr.Expr) bool {
			if c, ok := e.(*expr.Col); ok && c.Index >= 0 && c.Index < n {
				need |= 1 << c.Index
			}
			return true
		})
	}
	switch need {
	case 1<<n - 1:
		return nil
	case emit:
		return s.Cols
	}
	cols := make([]int, 0, bits.OnesCount64(need))
	for c := range n {
		if need&(1<<c) != 0 {
			cols = append(cols, c)
		}
	}
	return cols
}

// IndexScanNode is a B+ tree range scan over the index's leading column.
// The plan holds no key values: Bounds are the `col ⋈ literal-or-?` conjuncts
// (over the table schema) the optimizer costed the range from, and the scan
// derives its bounds from them at Open with the parameters of that execution
// (expr.ExtractInterval + expr.Intersect, as the optimizer did) — so one plan
// serves every bind of a parameterised statement. Residual filters rows after
// the heap fetch, before the projection to Cols (as ScanNode.Cols).
type IndexScanNode struct {
	Base
	Table    *catalog.Table
	Alias    string
	Index    *catalog.Index
	Cols     []int
	Bounds   []expr.Expr // over table schema; never empty
	Residual expr.Expr   // over table schema
	// RFConsume lists runtime join filters this scan tests rows against.
	RFConsume []RFilterSpec
}

// JoinNode joins two subplans. LeftKeys/RightKeys index into the respective
// child schemas (equi-join columns); Residual is evaluated over the
// concatenation left‖right of the two.
type JoinNode struct {
	Base
	Alg       JoinAlg
	Type      JoinType
	LeftKeys  []int
	RightKeys []int
	Residual  expr.Expr
	// Cols lists the positions of left‖right the join emits, ascending (as
	// ScanNode.Cols): Out is the matching schema, nil emits all of both. Keys
	// and Residual are tested before the projection.
	Cols []int
	// RFilters lists the runtime join filters this join derives from its
	// build (right) side after draining it (set by PlanRuntimeFilters).
	RFilters []RFilterSpec
	// Shuffle selects how sharded execution routes this join's rows between
	// shard-local pipelines (set by opt.PlanShuffles; ignored unless the
	// execution context carries a shard count above one).
	Shuffle ShuffleMode
}

// ShuffleMode is a hash join's row-routing strategy under sharded
// execution.
type ShuffleMode uint8

const (
	// ShuffleNone leaves the join on the unsharded path.
	ShuffleNone ShuffleMode = iota
	// ShuffleColocated exploits matching physical partitioning on the join
	// key: every match is shard-local and no rows move.
	ShuffleColocated
	// ShuffleRepartition hash-partitions both sides on the join key.
	ShuffleRepartition
	// ShuffleBroadcast replicates the (small) build side to every shard and
	// leaves the (large) probe side where it is scanned.
	ShuffleBroadcast
)

// String names the shuffle mode for traces and bench output.
func (m ShuffleMode) String() string {
	switch m {
	case ShuffleColocated:
		return "colocated"
	case ShuffleRepartition:
		return "repartition"
	case ShuffleBroadcast:
		return "broadcast"
	default:
		return "none"
	}
}

// Left returns the left child.
func (j *JoinNode) Left() Node { return j.Kids[0] }

// Right returns the right child.
func (j *JoinNode) Right() Node { return j.Kids[1] }

// IndexJoinNode is an index nested-loop join: for each left row, probe the
// given index of the right base table. Filter tests the fetched stored row, in
// table coordinates (as IndexScanNode.Residual); the output is the left row
// followed by a survivor's Cols (as ScanNode.Cols), and Residual — what reads
// both sides — is over that.
type IndexJoinNode struct {
	Base
	Type     JoinType
	Table    *catalog.Table
	Alias    string
	Index    *catalog.Index
	Cols     []int
	LeftKeys []int // columns of the left child matched to the index prefix
	Filter   expr.Expr
	Residual expr.Expr
}

// Left returns the outer child.
func (j *IndexJoinNode) Left() Node { return j.Kids[0] }

// TempScanNode scans a materialized in-memory relation (a progressive
// re-optimization intermediate).
type TempScanNode struct {
	Base
	Alias  string
	Rows   []types.Row
	Filter expr.Expr
}

// FilterNode applies a predicate over its child's schema.
type FilterNode struct {
	Base
	Pred expr.Expr
}

// ProjectNode computes expressions over its child's schema.
type ProjectNode struct {
	Base
	Exprs []expr.Expr
}

// SortNode sorts by the given keys (over its child's schema). The sort holds
// what its workspace grant covers in memory and spills the rest to runs.
type SortNode struct {
	Base
	Keys []OrderSpec
}

// AggNode groups and aggregates by hashing. Output schema: group exprs then
// agg slots.
type AggNode struct {
	Base
	GroupExprs []expr.Expr
	Aggs       []AggSpec
}

// DistinctNode removes duplicate rows.
type DistinctNode struct{ Base }

// LimitNode caps output at N rows after skipping Skip.
type LimitNode struct {
	Base
	N    int
	Skip int
}

// Explain renders the plan tree with estimates, indented.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0, false)
	return sb.String()
}

// ExplainActual renders the plan with estimated and actual cardinalities.
func ExplainActual(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0, true)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int, actual bool) {
	sb.WriteString(strings.Repeat("  ", depth))
	p := n.Props()
	if act := p.ActualRows(); actual && act >= 0 {
		fmt.Fprintf(sb, "%s (est=%.0f actual=%.0f cost=%.1f)\n", n.Label(), p.EstRows, act, p.EstCost)
	} else {
		fmt.Fprintf(sb, "%s (rows=%.0f cost=%.1f)\n", n.Label(), p.EstRows, p.EstCost)
	}
	for _, c := range n.Children() {
		explain(sb, c, depth+1, actual)
	}
}

// Walk visits the plan tree pre-order.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// PlanSignature returns a canonical string identifying the plan's structure
// (operators, join order and algorithms) without estimates — used to detect
// plan changes across equivalent queries and plan-diagram cells.
func PlanSignature(n Node) string {
	var sb strings.Builder
	sig(&sb, n)
	return sb.String()
}

func sig(sb *strings.Builder, n Node) {
	sb.WriteString(n.Label())
	kids := n.Children()
	if len(kids) > 0 {
		sb.WriteByte('[')
		for i, c := range kids {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sig(sb, c)
		}
		sb.WriteByte(']')
	}
}
