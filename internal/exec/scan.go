package exec

import (
	"fmt"
	"sync"

	"rqp/internal/expr"
	"rqp/internal/index"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// rowBuf backs the rows a serial scan lends between two refills (a heap
// page, a batch, a column block): the row index and the value slab that rows
// as wide as the query are carved from. Pooled whole and by pointer, across
// scans and queries, so a scan in a warm pool allocates neither.
type rowBuf struct {
	rows []types.Row
	slab []types.Value
}

var rowBufPool = sync.Pool{New: func() any { return new(rowBuf) }}

// getRowBuf returns an empty buffer with room for nrows rows in the index and
// nvals carved values in the slab (zero: rows held by reference only).
func getRowBuf(nrows, nvals int) *rowBuf {
	b := rowBufPool.Get().(*rowBuf)
	if cap(b.rows) < nrows {
		b.rows = make([]types.Row, 0, nrows)
	}
	if cap(b.slab) < nvals {
		b.slab = make([]types.Value, 0, nvals)
	}
	return b
}

// putRowBuf returns b to the pool, emptied: it must not pin row data.
func putRowBuf(b *rowBuf) {
	clear(b.rows[:cap(b.rows)])
	clear(b.slab[:cap(b.slab)])
	b.reset()
	rowBufPool.Put(b)
}

func (b *rowBuf) reset() { b.rows, b.slab = b.rows[:0], b.slab[:0] }

// carve appends the cols of src to the slab as one more row and returns it.
func (b *rowBuf) carve(src types.Row, cols []int) types.Row {
	off := len(b.slab)
	b.slab = appendCols(b.slab, src, cols)
	return b.slab[off:len(b.slab):len(b.slab)]
}

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

// seqScan reads a heap table in physical order, applying the pushed-down
// filter. It streams one page at a time, so its working memory is one
// page's rows regardless of table size, and a parent that stops early
// (LIMIT) never pays for pages it did not pull. The heap charges one
// sequential read per page; each examined row charges CPU. A surviving row
// is projected to the node's Cols into a page buffer reused from page to
// page (nil Cols lends the stored row itself).
type seqScan struct {
	ctx    *Context
	node   *plan.ScanNode
	rf     *rfConsumer
	npages int
	page   int
	buf    *rowBuf
	pos    int
}

func (s *seqScan) Open() error {
	s.npages = s.node.Table.Heap.NumPages()
	s.page = 0
	if s.buf == nil {
		s.buf = getRowBuf(storage.PageRows, storage.PageRows*len(s.node.Cols))
	}
	s.buf.reset()
	s.pos = 0
	s.rf = bindRuntimeFilters(s.ctx, s.node.RFConsume, s.node.Cols)
	return nil
}

func (s *seqScan) Next() (types.Row, bool, error) {
	for {
		if s.pos < len(s.buf.rows) {
			r := s.buf.rows[s.pos]
			s.pos++
			return r, true, nil
		}
		if s.page >= s.npages {
			return nil, false, nil
		}
		s.buf.reset()
		s.pos = 0
		var evalErr error
		s.node.Table.Heap.ScanPage(s.ctx.Clock, s.page, func(_ storage.RID, r types.Row) bool {
			// Runtime-filter rejects pay only the membership test, never
			// the full per-row charge.
			if s.rf != nil && !s.rf.admit(s.ctx.Clock, r) {
				return true
			}
			s.ctx.Clock.RowWork(1)
			if s.node.Filter != nil {
				ok, err := expr.EvalPredicate(s.node.Filter, r, s.ctx.Params)
				if err != nil {
					evalErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			if s.node.Cols != nil {
				r = s.buf.carve(r, s.node.Cols)
			}
			s.buf.rows = append(s.buf.rows, r)
			return true
		})
		s.page++
		if evalErr != nil {
			return nil, false, evalErr
		}
	}
}

func (s *seqScan) Close() error {
	if s.buf != nil {
		putRowBuf(s.buf)
		s.buf = nil
	}
	return nil
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
