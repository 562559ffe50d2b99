package core

import (
	"fmt"

	"rqp/internal/sql"
	"rqp/internal/types"
)

// maxSubqueryDepth bounds IN-subquery nesting.
const maxSubqueryDepth = 4

// expandSubqueries rewrites every `expr IN (SELECT ...)` in the statement by
// executing the (uncorrelated) subquery and substituting its result as a
// literal list — the classic "late binding" decomposition. Correlated
// subqueries (referencing outer relations) fail inside the subquery's own
// binding with an unknown-column error, which is the correct diagnostic.
func (e *Engine) expandSubqueries(sel *sql.SelectStmt, params []types.Value, depth int) (bool, error) {
	if depth > maxSubqueryDepth {
		return false, fmt.Errorf("core: subqueries nested deeper than %d", maxSubqueryDepth)
	}
	expanded := false
	rewrite := func(x sql.Expr) (sql.Expr, error) {
		out, did, err := e.rewriteExpr(x, params, depth)
		expanded = expanded || did
		return out, err
	}
	var err error
	if sel.Where != nil {
		if sel.Where, err = rewrite(sel.Where); err != nil {
			return false, err
		}
	}
	if sel.Having != nil {
		if sel.Having, err = rewrite(sel.Having); err != nil {
			return false, err
		}
	}
	for i := range sel.Joins {
		if sel.Joins[i].On, err = rewrite(sel.Joins[i].On); err != nil {
			return false, err
		}
	}
	return expanded, nil
}

func (e *Engine) rewriteExpr(x sql.Expr, params []types.Value, depth int) (sql.Expr, bool, error) {
	switch n := x.(type) {
	case *sql.InExpr:
		inner, did, err := e.rewriteExpr(n.E, params, depth)
		if err != nil {
			return nil, false, err
		}
		if n.Sub == nil {
			anyDid := did
			list := make([]sql.Expr, len(n.List))
			for i, item := range n.List {
				var d bool
				if list[i], d, err = e.rewriteExpr(item, params, depth); err != nil {
					return nil, false, err
				}
				anyDid = anyDid || d
			}
			return &sql.InExpr{E: inner, List: list, Neg: n.Neg}, anyDid, nil
		}
		res, err := e.runSubquery(n.Sub, params, depth+1)
		if err != nil {
			return nil, false, err
		}
		return &sql.InExpr{E: inner, List: res, Neg: n.Neg}, true, nil
	case *sql.BinExpr:
		l, d1, err := e.rewriteExpr(n.L, params, depth)
		if err != nil {
			return nil, false, err
		}
		r, d2, err := e.rewriteExpr(n.R, params, depth)
		if err != nil {
			return nil, false, err
		}
		return &sql.BinExpr{Op: n.Op, L: l, R: r}, d1 || d2, nil
	case *sql.UnExpr:
		inner, did, err := e.rewriteExpr(n.E, params, depth)
		if err != nil {
			return nil, false, err
		}
		return &sql.UnExpr{Op: n.Op, E: inner}, did, nil
	case *sql.BetweenExpr:
		inner, d1, err := e.rewriteExpr(n.E, params, depth)
		if err != nil {
			return nil, false, err
		}
		lo, d2, err := e.rewriteExpr(n.Lo, params, depth)
		if err != nil {
			return nil, false, err
		}
		hi, d3, err := e.rewriteExpr(n.Hi, params, depth)
		if err != nil {
			return nil, false, err
		}
		return &sql.BetweenExpr{E: inner, Lo: lo, Hi: hi, Neg: n.Neg}, d1 || d2 || d3, nil
	case *sql.IsNullExpr:
		inner, did, err := e.rewriteExpr(n.E, params, depth)
		if err != nil {
			return nil, false, err
		}
		return &sql.IsNullExpr{E: inner, Neg: n.Neg}, did, nil
	case *sql.LikeExpr:
		inner, did, err := e.rewriteExpr(n.E, params, depth)
		if err != nil {
			return nil, false, err
		}
		return &sql.LikeExpr{E: inner, Pattern: n.Pattern, Neg: n.Neg}, did, nil
	default:
		return x, false, nil
	}
}

// runSubquery executes an IN-subquery and returns its single output column
// as literal expressions.
func (e *Engine) runSubquery(sub *sql.SelectStmt, params []types.Value, depth int) ([]sql.Expr, error) {
	res, err := e.runSelectObserved(sub, nil, "", params, depth, false, nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: IN subquery: %w", err)
	}
	if len(res.Columns) != 1 {
		return nil, fmt.Errorf("core: IN subquery must return one column, got %d", len(res.Columns))
	}
	out := make([]sql.Expr, 0, len(res.Rows))
	for _, row := range res.Rows {
		lit, err := valueToAST(row[0])
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
	}
	return out, nil
}

func valueToAST(v types.Value) (sql.Expr, error) {
	switch v.K {
	case types.KindNull:
		return &sql.Lit{Kind: "null"}, nil
	case types.KindInt:
		return &sql.Lit{Kind: "int", Text: fmt.Sprintf("%d", v.I)}, nil
	case types.KindFloat:
		return &sql.Lit{Kind: "float", Text: fmt.Sprintf("%g", v.F)}, nil
	case types.KindString:
		return &sql.Lit{Kind: "string", Text: v.S}, nil
	case types.KindBool:
		return &sql.Lit{Kind: "bool", Bool: v.IsTrue()}, nil
	case types.KindDate:
		return &sql.FuncExpr{Name: "DATE", Args: []sql.Expr{
			&sql.Lit{Kind: "int", Text: fmt.Sprintf("%d", v.I)},
		}}, nil
	}
	return nil, fmt.Errorf("core: cannot lift value %s into SQL", v)
}
