package expr

import (
	"math"

	"rqp/internal/types"
)

// Conjuncts splits a predicate into its top-level AND factors.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// AppendConjuncts appends the top-level AND factors of e to dst, in order.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == OpAnd {
		return AppendConjuncts(AppendConjuncts(dst, b.L), b.R)
	}
	if e == nil {
		return dst
	}
	return append(dst, e)
}

// AndAll combines predicates with AND; nil for an empty list.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &Bin{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// ColumnsUsed returns the set of column indexes referenced by e.
func ColumnsUsed(e Expr) map[int]bool {
	cols := map[int]bool{}
	if e == nil {
		return cols
	}
	e.Walk(func(n Expr) bool {
		if c, ok := n.(*Col); ok {
			cols[c.Index] = true
		}
		return true
	})
	return cols
}

// HasParams reports whether the expression contains '?' placeholders.
func HasParams(e Expr) bool {
	found := false
	e.Walk(func(n Expr) bool {
		if _, ok := n.(*Param); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// Interval is a (possibly open-ended) numeric range over one column,
// extracted from simple comparison predicates for selectivity estimation and
// index range scans. Bounds are in float space; LoIncl/HiIncl track
// inclusivity. Eq holds the literal for equality predicates on any kind;
// it is held by value so that extracting an interval allocates nothing — a
// scan derives its index bounds this way at every Open.
type Interval struct {
	Col            int
	Lo, Hi         float64
	LoIncl, HiIncl bool
	HasLo, HasHi   bool
	HasEq          bool        // col = literal (or, with NE, col <> literal)
	Eq             types.Value // the literal, when HasEq
	NE             bool        // col <> literal (Eq holds the literal)
}

// Unbounded returns the full-range interval for a column.
func Unbounded(col int) Interval {
	return Interval{Col: col, Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// ExtractInterval recognizes `col cmp literal` (either orientation) and
// returns the implied interval. Works for constant and bound-parameter
// comparisons (params must be supplied for the latter; pass nil to only
// match constants).
func ExtractInterval(e Expr, params []types.Value) (Interval, bool) {
	b, ok := e.(*Bin)
	if !ok || !b.Op.IsComparison() {
		return Interval{}, false
	}
	col, lit, op, ok := splitColLiteral(b, params)
	if !ok {
		return Interval{}, false
	}
	iv := Unbounded(col.Index)
	switch op {
	case OpEQ:
		iv.Eq, iv.HasEq = lit, true
		if lit.Numeric() {
			iv.Lo, iv.Hi = lit.AsFloat(), lit.AsFloat()
			iv.LoIncl, iv.HiIncl = true, true
			iv.HasLo, iv.HasHi = true, true
		}
	case OpNE:
		iv.Eq, iv.HasEq = lit, true
		iv.NE = true
	case OpLT:
		iv.Hi, iv.HasHi = lit.AsFloat(), true
	case OpLE:
		iv.Hi, iv.HiIncl, iv.HasHi = lit.AsFloat(), true, true
	case OpGT:
		iv.Lo, iv.HasLo = lit.AsFloat(), true
	case OpGE:
		iv.Lo, iv.LoIncl, iv.HasLo = lit.AsFloat(), true, true
	}
	if op != OpEQ && op != OpNE && !lit.Numeric() {
		return Interval{}, false
	}
	return iv, true
}

// SplitColConst recognizes a `col ⋈ literal` comparison conjunct (either
// orientation; literals may be constants or bound parameters) and returns the
// column index, the operator normalized so the column reads on the left, and
// the literal value. Columnar scans push these onto encoded blocks and zone
// maps.
func SplitColConst(e Expr, params []types.Value) (col int, op Op, v types.Value, ok bool) {
	b, bok := e.(*Bin)
	if !bok || !b.Op.IsComparison() {
		return 0, OpInvalid, types.Null(), false
	}
	c, lit, nop, sok := splitColLiteral(b, params)
	if !sok {
		return 0, OpInvalid, types.Null(), false
	}
	return c.Index, nop, lit, true
}

func splitColLiteral(b *Bin, params []types.Value) (*Col, types.Value, Op, bool) {
	resolve := func(e Expr) (types.Value, bool) {
		switch n := e.(type) {
		case *Const:
			return n.V, true
		case *Param:
			if params != nil && n.Index < len(params) {
				return params[n.Index], true
			}
		}
		return types.Null(), false
	}
	if c, ok := b.L.(*Col); ok {
		if v, ok2 := resolve(b.R); ok2 {
			return c, v, b.Op, true
		}
	}
	if c, ok := b.R.(*Col); ok {
		if v, ok2 := resolve(b.L); ok2 {
			return c, v, b.Op.Flip(), true
		}
	}
	return nil, types.Null(), OpInvalid, false
}

// Intersect merges two intervals over the same column, returning the
// conjunction. Equality constraints dominate.
func Intersect(a, b Interval) Interval {
	out := a
	if b.HasEq && !b.NE {
		out.Eq, out.HasEq = b.Eq, true
		out.NE = false
	}
	if b.HasLo && (!out.HasLo || b.Lo > out.Lo || (b.Lo == out.Lo && !b.LoIncl)) {
		out.Lo, out.LoIncl, out.HasLo = b.Lo, b.LoIncl, true
	}
	if b.HasHi && (!out.HasHi || b.Hi < out.Hi || (b.Hi == out.Hi && !b.HiIncl)) {
		out.Hi, out.HiIncl, out.HasHi = b.Hi, b.HiIncl, true
	}
	return out
}

// RemapColumns rewrites column indexes through m (new := m[old]); indexes
// absent from m are left untouched. Used when pushing predicates through
// projections and joins.
func RemapColumns(e Expr, m map[int]int) Expr {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Col); ok {
			if nw, ok2 := m[c.Index]; ok2 {
				return &Col{Index: nw, Name: c.Name, Typ: c.Typ}
			}
		}
		return n
	})
}

// ShiftColumns adds delta to every column index (used when moving a
// predicate from a join output to the right input).
func ShiftColumns(e Expr, delta int) Expr {
	return Transform(e, func(n Expr) Expr {
		if c, ok := n.(*Col); ok {
			return &Col{Index: c.Index + delta, Name: c.Name, Typ: c.Typ}
		}
		return n
	})
}

// Transform rebuilds the tree bottom-up, applying fn to every node after its
// children have been transformed.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *Bin:
		return fn(&Bin{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case *Un:
		return fn(&Un{Op: n.Op, E: Transform(n.E, fn)})
	case *In:
		list := make([]Expr, len(n.List))
		for i, item := range n.List {
			list[i] = Transform(item, fn)
		}
		return fn(&In{E: Transform(n.E, fn), List: list, Neg: n.Neg})
	case *IsNull:
		return fn(&IsNull{E: Transform(n.E, fn), Neg: n.Neg})
	case *Like:
		return fn(&Like{E: Transform(n.E, fn), Pattern: n.Pattern, Neg: n.Neg})
	case *Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Transform(a, fn)
		}
		return fn(&Func{Name: n.Name, Args: args})
	default:
		return fn(e)
	}
}
