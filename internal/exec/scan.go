package exec

import (
	"fmt"

	"rqp/internal/expr"
	"rqp/internal/index"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// appendCols appends the cols of src to dst — all of src when cols is nil.
// It is the one projection every scan emits its Cols through: filters, zone
// maps and runtime filters have seen the stored row by then, so a rejected
// row is never copied.
func appendCols(dst, src types.Row, cols []int) types.Row {
	if cols == nil {
		return append(dst, src...)
	}
	for _, c := range cols {
		dst = append(dst, src[c])
	}
	return dst
}

// tempScan reads a materialized intermediate, charging sequential I/O as if
// it were paged.
type tempScan struct {
	ctx  *Context
	node *plan.TempScanNode
	rf   *rfConsumer
	pos  int
}

func (s *tempScan) Open() error {
	s.pos = 0
	pages := (len(s.node.Rows) + storage.PageRows - 1) / storage.PageRows
	s.ctx.Clock.SeqRead(pages)
	s.rf = bindRuntimeFilters(s.ctx, s.node.RFConsume, nil)
	return nil
}

func (s *tempScan) Next() (types.Row, bool, error) {
	for s.pos < len(s.node.Rows) {
		r := s.node.Rows[s.pos]
		s.pos++
		if s.rf != nil && !s.rf.admit(s.ctx.Clock, r) {
			continue
		}
		s.ctx.Clock.RowWork(1)
		if s.node.Filter != nil {
			ok, err := expr.EvalPredicate(s.node.Filter, r, s.ctx.Params)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
		}
		return r, true, nil
	}
	return nil, false, nil
}

func (s *tempScan) Close() error { return nil }

// indexScan walks a B+ tree range and fetches matching rows from the heap
// (random I/O per match), then applies the residual predicate. It holds the
// survivors by reference and lends each through one scratch row, projected
// to the node's Cols.
type indexScan struct {
	ctx  *Context
	node *plan.IndexScanNode
	rf   *rfConsumer
	rows []types.Row
	out  types.Row
	pos  int
	// keys backs the two one-column bound keys of an Open.
	keys [2]types.Value
}

// bounds derives the range from the node's bound conjuncts under this
// execution's parameters — the interval the optimizer costed, literal and
// `?` alike. A conjunct that is no interval under these parameters means the
// plan was built for binds of another kind: an error, never a wider scan.
func (s *indexScan) bounds() (lo, hi index.Bound, err error) {
	iv := expr.Unbounded(s.node.Index.Cols[0])
	for _, f := range s.node.Bounds {
		fiv, ok := expr.ExtractInterval(f, s.ctx.Params)
		if !ok {
			return lo, hi, fmt.Errorf("exec: index bound %s is not a range under these parameters", f)
		}
		iv = expr.Intersect(iv, fiv)
	}
	if iv.HasEq {
		s.keys[0] = iv.Eq
		lo = index.Bound{Key: s.keys[:1], Incl: true, Set: true}
		return lo, lo, nil
	}
	if iv.HasLo {
		s.keys[0] = types.Float(iv.Lo)
		lo = index.Bound{Key: s.keys[:1], Incl: iv.LoIncl, Set: true}
	}
	if iv.HasHi {
		s.keys[1] = types.Float(iv.Hi)
		hi = index.Bound{Key: s.keys[1:2], Incl: iv.HiIncl, Set: true}
	}
	return lo, hi, nil
}

func (s *indexScan) Open() error {
	s.rows = s.rows[:0]
	s.pos = 0
	s.rf = bindRuntimeFilters(s.ctx, s.node.RFConsume, s.node.Cols)
	n := s.node
	lo, hi, err := s.bounds()
	if err != nil {
		return err
	}
	var evalErr error
	n.Index.Tree.Scan(s.ctx.Clock, lo, hi, func(e index.Entry) bool {
		// NULL keys sort before every bound and would leak into scans with
		// an open lower end, but no SQL comparison matches NULL.
		if e.Key[0].IsNull() {
			return true
		}
		r, ok := n.Table.Heap.Get(s.ctx.Clock, e.RID)
		if !ok {
			return true
		}
		if s.rf != nil && !s.rf.admit(s.ctx.Clock, r) {
			return true
		}
		s.ctx.Clock.RowWork(1)
		if n.Residual != nil {
			pass, err := expr.EvalPredicate(n.Residual, r, s.ctx.Params)
			if err != nil {
				evalErr = err
				return false
			}
			if !pass {
				return true
			}
		}
		s.rows = append(s.rows, r)
		return true
	})
	return evalErr
}

func (s *indexScan) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	if s.node.Cols != nil {
		s.out = appendCols(s.out[:0], r, s.node.Cols)
		r = s.out
	}
	return r, true, nil
}

func (s *indexScan) Close() error {
	s.rows = nil
	return nil
}
