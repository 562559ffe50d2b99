// Package opt implements the cost-based optimizer: cardinality estimation
// with pluggable robustness modes, a cost model over the simulated machine,
// dynamic-programming join enumeration, exhaustive plan enumeration for the
// risk metrics, the join-graph re-planning POP's checkpoint compares, and
// plan diagrams with anorexic reduction.
package opt

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rqp/internal/catalog"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/stats"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// EstimateMode selects how selectivities are derived.
type EstimateMode uint8

// Estimation modes. Expected is the classic point estimate. Percentile is
// the Babcock–Chaudhuri robust estimate: plan with a conservative quantile
// of the selectivity posterior instead of its mean. Correlated additionally
// consults column-group statistics to break the independence assumption.
const (
	Expected EstimateMode = iota
	Percentile
	Correlated
)

// Options configures one optimization run.
type Options struct {
	Mode          EstimateMode
	PercentileP   float64 // quantile for Percentile mode (e.g. 0.9)
	MemBudgetRows int     // rows an operator may hold before spilling
	BushyJoins    bool
	CrossProducts bool // allow cross products inside enumeration
	// Joins is the join repertoire (plan-repertoire robustness tests narrow
	// it). JoinGeneral joins a split with no equi key by nested loops.
	Joins      plan.JoinAlgs
	IndexPaths IndexPaths
	// Columnar admits columnar access paths: tables carrying a column-store
	// snapshot may be scanned by ColScan, with zone-map block-skipping and
	// compression savings credited into the estimate.
	Columnar bool
}

// IndexPaths says how index access paths compete with scans. IndexAlways is
// the deliberately fragile policy the smoothness ablation compares against.
type IndexPaths uint8

// Index path modes.
const (
	IndexCosted IndexPaths = iota // the cheapest path wins
	IndexNever                    // no index access paths
	IndexAlways                   // an applicable index wins regardless of cost
)

// evidenceRows is the pseudo-sample size backing each estimate's posterior.
const evidenceRows = 200

// DefaultOptions is a sensible classic configuration.
func DefaultOptions() Options {
	return Options{Mode: Expected, PercentileP: 0.9, MemBudgetRows: 1 << 16,
		Joins: 1<<plan.JoinHash | 1<<plan.JoinMerge | 1<<plan.JoinNL | 1<<plan.JoinIndexNL}
}

// Optimizer plans bound query blocks against a catalog.
type Optimizer struct {
	Cat   *catalog.Catalog
	Cards *Cards // estimates replaced from outside the estimator
	CM    storage.CostModel
	Opt   Options
}

// New returns an optimizer with default options and an empty Cards table.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{Cat: cat, Cards: &Cards{}, CM: storage.DefaultCostModel(), Opt: DefaultOptions()}
}

// WithCards returns a copy of o that consults c instead of o.Cards.
func (o *Optimizer) WithCards(c *Cards) *Optimizer {
	cp := *o
	cp.Cards = c
	return &cp
}

// ---------- base relations ----------

// BaseRel abstracts an optimizable input: a catalog table or a materialized
// intermediate (Table nil: used by progressive re-optimization, which treats
// completed subresults as temp tables with exactly known cardinality).
type BaseRel struct {
	Alias  string
	Schema types.Schema // qualified by alias
	Table  *catalog.Table
	Temp   []types.Row // set for materialized intermediates
	Rows   float64     // raw row count
	Pages  float64
}

// relInfo is a base relation plus its pushed-down filters and estimates.
type relInfo struct {
	rel       BaseRel
	offset    int         // column offset in combined schema
	filters   []expr.Expr // table-local (shifted) conjuncts
	card      float64
	signature string // the relation's key in Cards
	// What every access path of the relation emits, built once and shared by
	// the scan, index-scan and index-join candidates.
	cols  []int        // table columns, ascending; nil = all
	ccols []int        // their combined-schema indexes: the entry's cols
	out   types.Schema // rel.Schema narrowed to cols
}

func (ri *relInfo) width() int { return len(ri.rel.Schema) }

// narrow sets what the relation's access paths emit: the columns live out of
// set — the relation alone, with its filters pushed down — or every column
// when they all are or the relation is a materialized intermediate.
func (ri *relInfo) narrow(lv liveness, set uint64) {
	if ri.rel.Table == nil {
		lv = nil
	}
	ri.cols, ri.ccols = lv.project(set, seq(ri.offset, ri.width()))
	if ri.out = ri.rel.Schema; ri.cols != nil {
		ri.out = schemaFor(ri.rel.Schema, ri.cols)
	}
}

// joinPred is one conjunct spanning two or more relations.
type joinPred struct {
	cond     expr.Expr // over combined schema
	mask     uint64    // relations referenced
	sel      float64
	equi     bool
	leftCol  int // combined-schema indexes for equi preds
	rightCol int
}

// queryInfo is everything the enumerator needs.
type queryInfo struct {
	rels     []*relInfo
	preds    []joinPred
	combined types.Schema
	params   []types.Value
	live     liveness
	sigs     map[uint64]string // joinSignature per relation set
	cards    *Cards            // the optimizer's, nil when it is empty
}

// analyze splits the query block's conjuncts into per-relation filters and
// join predicates and computes all base cardinalities. lv arrives marked by
// the block above the joins and leaves marked by the join predicates too (see
// liveness); nil (no query block) keeps every column everywhere.
func (o *Optimizer) analyze(rels []BaseRel, conjuncts []expr.Expr, params []types.Value, lv liveness) (*queryInfo, error) {
	qi := &queryInfo{params: params, live: lv}
	if o.Cards.Len() > 0 {
		qi.cards = o.Cards
	}
	offset := 0
	for _, br := range rels {
		ri := &relInfo{rel: br, offset: offset}
		qi.combined = append(qi.combined, br.Schema...)
		qi.rels = append(qi.rels, ri)
		offset += len(br.Schema)
	}
	relForCol := func(col int) int {
		for i, ri := range qi.rels {
			if col >= ri.offset && col < ri.offset+ri.width() {
				return i
			}
		}
		return -1
	}
	for _, c := range conjuncts {
		cols := expr.ColumnsUsed(c)
		var mask uint64
		for col := range cols {
			ri := relForCol(col)
			if ri < 0 {
				return nil, fmt.Errorf("opt: conjunct %s references column outside block", c)
			}
			mask |= 1 << uint(ri)
		}
		switch popcount(mask) {
		case 0: // constant predicate: fold into every relation's selectivity via rel 0
			qi.rels[0].filters = append(qi.rels[0].filters, c)
		case 1:
			ri := qi.rels[trailingRel(mask)]
			ri.filters = append(ri.filters, expr.ShiftColumns(c, -ri.offset))
		default:
			if lv != nil {
				for col := range cols {
					lv[col] |= mask
				}
			}
			jp := joinPred{cond: c, mask: mask}
			if b, ok := c.(*expr.Bin); ok && b.Op == expr.OpEQ {
				lc, lok := b.L.(*expr.Col)
				rc, rok := b.R.(*expr.Col)
				if lok && rok && relForCol(lc.Index) != relForCol(rc.Index) {
					jp.equi = true
					jp.leftCol, jp.rightCol = lc.Index, rc.Index
				}
			}
			jp.sel = o.joinPredSelectivity(qi, jp)
			qi.preds = append(qi.preds, jp)
		}
	}
	for i, ri := range qi.rels {
		ri.narrow(lv, 1<<uint(i))
		o.estimateBase(qi, ri)
	}
	return qi, nil
}

func popcount(m uint64) int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

func trailingRel(m uint64) int {
	for i := 0; i < 64; i++ {
		if m&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// estimateBase computes the filtered cardinality of one base relation, as
// qi.cards replaces it.
func (o *Optimizer) estimateBase(qi *queryInfo, ri *relInfo) {
	rows := ri.rel.Rows
	sel, sig := o.filterSelectivity(ri.rel, ri.filters, qi.params)
	if ri.rel.Table == nil {
		sig = ri.rel.Alias
	}
	ri.signature = sig
	ri.card = math.Max(rows*sel, 0)
	if len(ri.filters) > 0 && ri.card < 1 {
		ri.card = math.Min(1, rows)
	}
	ri.card = qi.cards.apply(sig, ri.card, ri.rel.Table != nil)
}

// filterSelectivity estimates the combined selectivity of table-local
// conjuncts and returns a table's key for the predicate set (table|preds;
// none for a temp or without filters).
func (o *Optimizer) filterSelectivity(br BaseRel, filters []expr.Expr, params []types.Value) (float64, string) {
	if len(filters) == 0 {
		return 1, ""
	}
	texts := make([]string, len(filters))
	sels := make([]float64, len(filters))
	eqCols := []int{}
	eqSels := []float64{}
	for i, f := range filters {
		texts[i] = expr.EquivalentForm(f)
		s := PredSelectivity(br.Table, f, params)
		if o.Opt.Mode == Percentile {
			d := stats.FromEstimate(s, evidenceRows)
			s = d.Percentile(o.Opt.PercentileP)
		}
		sels[i] = s
		if iv, ok := expr.ExtractInterval(f, params); ok && iv.HasEq && !iv.NE {
			eqCols = append(eqCols, iv.Col)
			eqSels = append(eqSels, s)
		}
	}
	sig := ""
	if br.Table != nil {
		sort.Strings(texts)
		sig = br.Table.Name + "|" + strings.Join(texts, "&")
	}

	// Correlated mode: if all-equality column group has recorded joint NDV,
	// use the correlation-aware combination for those and multiply the rest.
	if o.Opt.Mode == Correlated && br.Table != nil && len(eqCols) >= 2 {
		if _, ok := br.Table.Stats.GroupNDV(eqCols); ok {
			corrSel := br.Table.Stats.CorrelatedConjunctionSelectivity(eqCols, eqSels)
			rest := 1.0
			for i, f := range filters {
				if iv, ok := expr.ExtractInterval(f, params); ok && iv.HasEq && !iv.NE {
					continue
				}
				rest *= sels[i]
			}
			return clamp01(corrSel * rest), sig
		}
	}
	total := 1.0
	for _, s := range sels {
		total *= s
	}
	return clamp01(total), sig
}

// ParamPred is one conjunct through which a parameter value reaches the
// estimator: Pred, over Table's own schema, mentions a `?`.
type ParamPred struct {
	Table *catalog.Table
	Pred  expr.Expr
}

// ParamPreds lists the conjuncts of q whose selectivity depends on the value
// bound to a `?`: those that mention one and the columns of exactly one
// relation, shifted to that relation's schema as analyze shifts them. Every
// other conjunct gets a selectivity that ignores values — a join predicate by
// its columns' distinct counts, a column-free one a default — so
// PredSelectivity over this list, plus which parameters are NULL, numeric or
// neither (what decides whether a conjunct is an index range or a pushed
// column predicate), is everything Optimize derives from the parameters — but
// for the zone maps a ColScan estimate consults with them bound.
func ParamPreds(q *plan.Query) []ParamPred {
	var out []ParamPred
	for _, c := range q.Conjuncts {
		if !expr.HasParams(c) {
			continue
		}
		rel := -1
		for col := range expr.ColumnsUsed(c) {
			ri := q.RelIndexForColumn(col)
			if rel >= 0 && ri != rel {
				rel = -1
				break
			}
			rel = ri
		}
		if rel >= 0 {
			r := q.Rels[rel]
			out = append(out, ParamPred{Table: r.Table, Pred: expr.ShiftColumns(c, -r.Offset)})
		}
	}
	return out
}

// PredSelectivity estimates one conjunct over one relation's schema (t nil: a
// materialized intermediate, no statistics) under the given parameters. It is
// the number filterSelectivity multiplies into the relation's cardinality and
// it allocates nothing: the plan cache calls it per cached statement and
// execution to place a bind in the selectivity space (ParamPreds).
func PredSelectivity(t *catalog.Table, f expr.Expr, params []types.Value) float64 {
	var ts *stats.TableStats
	if t != nil {
		ts = t.Stats
	}
	colStats := func(col int) *stats.ColumnStats {
		if ts == nil {
			return nil
		}
		return ts.ColStats(col)
	}
	if iv, ok := expr.ExtractInterval(f, params); ok {
		cs := colStats(iv.Col)
		switch {
		case iv.HasEq && iv.NE:
			if cs != nil {
				return clamp01(1 - cs.SelectivityEq(iv.Eq))
			}
			return 0.9
		case iv.HasEq:
			if cs != nil {
				return cs.SelectivityEq(iv.Eq)
			}
			return 0.05
		default:
			lo, hi := math.Inf(-1), math.Inf(1)
			if iv.HasLo {
				lo = iv.Lo
			}
			if iv.HasHi {
				hi = iv.Hi
			}
			if cs != nil {
				return cs.SelectivityRange(lo, hi)
			}
			return 0.3
		}
	}
	switch n := f.(type) {
	case *expr.In:
		if c, ok := n.E.(*expr.Col); ok {
			cs := colStats(c.Index)
			total := 0.0
			for _, item := range n.List {
				if lit, ok := item.(*expr.Const); ok {
					if cs != nil {
						total += cs.SelectivityEq(lit.V)
					} else {
						total += 0.05
					}
				}
			}
			total = clamp01(total)
			if n.Neg {
				return clamp01(1 - total)
			}
			return total
		}
	case *expr.IsNull:
		if c, ok := n.E.(*expr.Col); ok {
			if cs := colStats(c.Index); cs != nil && cs.RowCount > 0 {
				nf := cs.NullCount / cs.RowCount
				if n.Neg {
					return clamp01(1 - nf)
				}
				return clamp01(nf)
			}
		}
		if n.Neg {
			return 0.95
		}
		return 0.05
	case *expr.Like:
		sel := 0.1
		if strings.HasPrefix(n.Pattern, "%") {
			sel = 0.25
		}
		if n.Neg {
			return 1 - sel
		}
		return sel
	case *expr.Bin:
		if n.Op == expr.OpOr {
			l := PredSelectivity(t, n.L, params)
			r := PredSelectivity(t, n.R, params)
			return clamp01(l + r - l*r)
		}
		if n.Op == expr.OpAnd {
			return clamp01(PredSelectivity(t, n.L, params) * PredSelectivity(t, n.R, params))
		}
	}
	return 1.0 / 3
}

// joinPredSelectivity estimates one join conjunct.
func (o *Optimizer) joinPredSelectivity(qi *queryInfo, jp joinPred) float64 {
	if jp.equi {
		var lcs, rcs *stats.ColumnStats
		for _, ri := range qi.rels {
			if ri.rel.Table == nil {
				continue
			}
			if jp.leftCol >= ri.offset && jp.leftCol < ri.offset+ri.width() {
				lcs = ri.rel.Table.Stats.ColStats(jp.leftCol - ri.offset)
			}
			if jp.rightCol >= ri.offset && jp.rightCol < ri.offset+ri.width() {
				rcs = ri.rel.Table.Stats.ColStats(jp.rightCol - ri.offset)
			}
		}
		return stats.JoinSelectivity(lcs, rcs)
	}
	return 1.0 / 3
}

// cardOfSet returns the estimated cardinality of joining the relation set:
// product of filtered base cards times the selectivity of every join
// predicate fully contained in the set, as qi.cards replaces it. This is
// order-independent, so all plans for the same set agree (required for DP
// admissibility).
func (o *Optimizer) cardOfSet(qi *queryInfo, set uint64) float64 {
	card := 1.0
	for i, ri := range qi.rels {
		if set&(1<<uint(i)) != 0 {
			card *= math.Max(ri.card, 1e-9)
		}
	}
	for _, jp := range qi.preds {
		if jp.mask&set == jp.mask {
			card *= jp.sel
		}
	}
	if card < 0 {
		card = 0
	}
	if qi.cards != nil {
		card = qi.cards.apply(qi.joinSignature(set), card, false)
	}
	return card
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// BaseRelsFromQuery converts a bound query block's relations.
func BaseRelsFromQuery(q *plan.Query) []BaseRel {
	out := make([]BaseRel, len(q.Rels))
	for i, r := range q.Rels {
		out[i] = BaseRelFromTable(r.Table, r.Alias)
	}
	return out
}

// BaseRelFromTable wraps a catalog table as an optimizable relation.
func BaseRelFromTable(t *catalog.Table, alias string) BaseRel {
	rows := float64(t.Heap.NumRows())
	if t.Stats != nil && t.Stats.RowCount > 0 {
		rows = t.Stats.RowCount
	}
	return BaseRel{
		Alias:  alias,
		Schema: t.Schema.WithTable(alias),
		Table:  t,
		Rows:   rows,
		Pages:  float64(t.Heap.NumPages()),
	}
}

// TempRel wraps materialized rows as an optimizable relation with exact
// cardinality — the vehicle for progressive re-optimization.
func TempRel(alias string, schema types.Schema, rows []types.Row) BaseRel {
	return BaseRel{
		Alias:  alias,
		Schema: schema,
		Temp:   rows,
		Rows:   float64(len(rows)),
		Pages:  math.Ceil(float64(len(rows)) / float64(storage.PageRows)),
	}
}
