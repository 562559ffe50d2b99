package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Columnar scan execution. Both variants — row-at-a-time (colScan) and
// morsel-parallel (scanMorsel's columnar branch) — share one core,
// colScanner.scanMorsel, so they issue the identical multiset of clock
// charges per morsel:
//
//	ZoneCheck(1)       per consulted pruning source (each pushed col⋈const
//	                   conjunct in order, then each enabled bounded runtime
//	                   filter), short-circuiting on the first prune;
//	SeqRead(span)      per decoded column of a surviving block: the node's
//	                   Cols plus whatever else its filter or a runtime
//	                   filter reads (nothing else, in a plan the optimizer
//	                   made: a block's conjuncts are columns the query
//	                   mentions);
//	FilterTest(units)  per pushed conjunct, where units is the block's
//	                   encoded evaluation work (run count for RLE blocks);
//	rf admission + RowWork(1) per row surviving the encoded filters, with
//	                   the residual predicate folded into that charge;
//	a heap scan's charges for each changed page, in the block its rows began
//	                   in (read, pruned or covered), and for each tail page,
//	                   MorselPages to a morsel after the last block.
//
// A skipped block charges nothing beyond its zone checks, which is where the
// columnar speedup at low selectivity comes from. The heap is the snapshot's
// delta: a page written since the build is changed — masked out of its
// blocks, its current rows read from the heap in their place, in heap order
// — and a page added since is tail.
type colScanner struct {
	ctx  *Context
	node *plan.ScanNode
	cs   *storage.ColumnStore
	rf   *rfConsumer

	need        []int       // table columns to decode, always non-nil and sorted
	pushed      []pushedCmp // col ⋈ const conjuncts evaluated on encoded blocks
	alwaysFalse bool        // a conjunct compares against NULL: nothing matches
	residual    expr.Expr   // conjuncts that could not be pushed

	start          []int32 // the snapshot's HeapMark.PageStart
	changed        []int32 // changed pages, ascending
	tailLo, tailHi int     // tail pages [tailLo, tailHi)
}

// pushedCmp is one col ⋈ const conjunct lowered onto the column store.
type pushedCmp struct {
	col int
	op  storage.CmpOp
	v   types.Value
}

// colScannerFor builds the shared columnar scan core for a scan node, or
// returns nil when the node is not columnar or the table has no snapshot
// (never built, or dropped by PartitionTable; callers then scan the heap).
// It asks the heap once which pages changed since the snapshot was built.
// The returned scanner is read-only after construction and safe for
// concurrent scanMorsel calls.
func colScannerFor(ctx *Context, node *plan.ScanNode, rf *rfConsumer) *colScanner {
	if !node.Columnar {
		return nil
	}
	cs := node.Table.Col()
	if cs == nil {
		return nil
	}
	mark := cs.Mark()
	c := &colScanner{ctx: ctx, node: node, cs: cs, rf: rf, start: mark.PageStart, tailLo: len(mark.PageStart) - 1}
	c.changed, c.tailHi = node.Table.Heap.Changed(mark, nil)
	// A page that held no snapshot row cannot change — save the build's last,
	// by an insert — and if that one changed, its rows lie past every block.
	if n := len(c.changed); n > 0 && int(c.start[c.changed[n-1]]) == cs.NumRows() {
		c.changed, c.tailLo = c.changed[:n-1], int(c.changed[n-1])
	}
	var conj, rest [8]expr.Expr // a filter's conjuncts, most often without an allocation
	cjs := expr.AppendConjuncts(conj[:0], node.Filter)
	c.pushed = make([]pushedCmp, 0, len(cjs))
	residual := rest[:0]
	for _, cj := range cjs {
		col, op, v, ok := expr.SplitColConst(cj, ctx.Params)
		if ok && col >= 0 && col < cs.NumCols() {
			if v.IsNull() {
				// col ⋈ NULL is never true, so the conjunction — and with it
				// the whole scan — is empty.
				c.alwaysFalse = true
				continue
			}
			if cop, ok2 := storageCmpOp(op); ok2 {
				c.pushed = append(c.pushed, pushedCmp{col: col, op: cop, v: v})
				continue
			}
		}
		residual = append(residual, cj)
	}
	c.residual = expr.AndAll(residual)
	c.need = c.decodeSet()
	return c
}

// decodeSet lists the table columns the scan decodes, ascending: the columns
// it emits and any other its pushed conjuncts, residual or runtime filters
// test.
func (c *colScanner) decodeSet() []int {
	need := make([]int, c.cs.NumCols()) // need[col] != 0 marks col, until compacted
	if c.node.Cols == nil {
		for col := range need {
			need[col] = col
		}
		return need
	}
	for _, col := range c.node.Cols {
		need[col] = 1
	}
	for _, p := range c.pushed {
		need[p.col] = 1
	}
	if c.residual != nil {
		c.residual.Walk(func(n expr.Expr) bool {
			if col, ok := n.(*expr.Col); ok && col.Index >= 0 && col.Index < len(need) {
				need[col.Index] = 1
			}
			return true
		})
	}
	if c.rf != nil {
		for _, col := range c.rf.cols {
			need[col] = 1
		}
	}
	n := 0
	for col, marked := range need {
		if marked != 0 {
			need[n] = col
			n++
		}
	}
	return need[:n]
}

// storageCmpOp maps an expression comparison operator onto the storage
// layer's CmpOp.
func storageCmpOp(op expr.Op) (storage.CmpOp, bool) {
	switch op {
	case expr.OpEQ:
		return storage.CmpEQ, true
	case expr.OpNE:
		return storage.CmpNE, true
	case expr.OpLT:
		return storage.CmpLT, true
	case expr.OpLE:
		return storage.CmpLE, true
	case expr.OpGT:
		return storage.CmpGT, true
	case expr.OpGE:
		return storage.CmpGE, true
	}
	return 0, false
}

// scanGeometry returns the morsel count and heap page count for a scan:
// columnar scans use one morsel per column block, then one per MorselPages
// tail pages (I/O is charged inside scanMorsel), heap scans one morsel per
// MorselPages pages. col is the scan's columnar core (nil for heap scans),
// resolved once by the caller so geometry and execution agree on the same
// snapshot and delta.
func scanGeometry(node *plan.ScanNode, col *colScanner) (nmorsels, npages int) {
	if col != nil {
		return col.cs.NumBlocks() + morselCount(col.tailHi-col.tailLo, MorselPages), 0
	}
	np := node.Table.Heap.NumPages()
	return morselCount(np, MorselPages), np
}

// scanMorsel scans morsel m: block m, or past the last block a run of tail
// pages.
func (c *colScanner) scanMorsel(m int, clk *storage.Clock, s *blockScratch, emit func(types.Row) error) error {
	nb := c.cs.NumBlocks()
	if m < nb {
		return c.scanBlock(m, clk, s, emit)
	}
	lo, hi := morselRange(m-nb, MorselPages, c.tailHi-c.tailLo)
	return c.readHeap(c.tailLo+lo, c.tailLo+hi, clk, s, emit)
}

// readHeap scans heap pages [lo, hi) as a heap scan does, at its charges.
func (c *colScanner) readHeap(lo, hi int, clk *storage.Clock, s *blockScratch, emit func(types.Row) error) error {
	atomic.AddInt64(&c.ctx.ColHeapPages, int64(hi-lo))
	return scanPageRange(c.ctx, c.node, c.rf, lo, hi, clk, &s.row, emit)
}

// delta returns the changed pages holding positions [lo, hi) of the
// snapshot, c.changed[first:last], and how many of those positions they hold.
func (c *colScanner) delta(lo, hi int) (first, last, covered int) {
	first = sort.Search(len(c.changed), func(i int) bool { return int(c.start[c.changed[i]+1]) > lo })
	for last = first; last < len(c.changed) && int(c.start[c.changed[last]]) < hi; last++ {
		covered += min(int(c.start[c.changed[last]+1]), hi) - max(int(c.start[c.changed[last]]), lo)
	}
	return first, last, covered
}

// skip records one block not read: the metrics counter, and a trace event
// when tracing is on.
func (c *colScanner) skip(b int, why string) {
	atomic.AddInt64(&c.ctx.ColBlocksSkipped, 1)
	if c.ctx.Trace != nil {
		c.ctx.Trace.Event("columnar.skip", fmt.Sprintf("block=%d cause=%s", b, why))
	}
}

// pruned reports whether block b need not be read — changed pages cover it,
// or its zones rule it out — charging the zone checks that decided.
func (c *colScanner) pruned(b int, clk *storage.Clock, covered bool) bool {
	if covered {
		c.skip(b, "delta")
		return true
	}
	if c.alwaysFalse {
		clk.ZoneChecks(1)
		c.skip(b, "const")
		return true
	}
	for i := range c.pushed {
		p := &c.pushed[i]
		clk.ZoneChecks(1)
		if c.cs.ZonePrune(p.col, b, p.op, p.v) {
			c.skip(b, "zone")
			return true
		}
	}
	if c.rf != nil {
		for i, f := range c.rf.filters {
			if !f.enabled() || !f.bounded {
				continue
			}
			clk.ZoneChecks(1)
			zmin, zmax, ok := c.cs.Zone(c.rf.cols[i], b)
			if !ok || types.Compare(zmax, f.min) < 0 || types.Compare(zmin, f.max) > 0 {
				c.skip(b, "rf")
				return true
			}
		}
	}
	return false
}

// scanBlock processes block b, charging clk per the contract above and
// lending every surviving row to emit, and the current rows of each changed
// page beginning in the block where its positions were. The block decodes
// into a table-width scratch row, on which the runtime filters and the
// residual are tested in table coordinates; a survivor is projected to the
// node's Cols into a second scratch row (nil Cols lends the first), so the
// row is valid only until emit returns and a consumer that keeps it copies
// it (RowArena). Safe for concurrent use across blocks: everything a call
// writes to is in s, which its caller owns.
func (c *colScanner) scanBlock(b int, clk *storage.Clock, s *blockScratch, emit func(types.Row) error) error {
	lo, nrows := b*c.cs.BlockSize(), c.cs.BlockRows(b)
	first, last, covered := c.delta(lo, lo+nrows)
	if c.pruned(b, clk, covered == nrows) {
		nrows = 0 // none of its positions: only the changed pages beginning in it
	}
	keep, vals, buf := s.size(nrows, len(c.need), c.cs.NumCols()+len(c.node.Cols))
	if nrows > 0 { // read: every block holds a row
		for _, col := range c.need {
			clk.SeqRead(c.cs.PageSpan(col, b))
		}
		for _, p := range c.changed[first:last] {
			clear(keep[max(int(c.start[p])-lo, 0):min(int(c.start[p+1])-lo, nrows)])
		}
		for i := range c.pushed {
			p := &c.pushed[i]
			clk.FilterTestsBatch(c.cs.EvalUnits(p.col, b))
			c.cs.EvalBlock(p.col, b, p.op, p.v, keep)
		}
		atomic.AddInt64(&c.ctx.ColBlocksScanned, 1)
		if c.ctx.Trace != nil {
			c.ctx.Trace.Event("columnar.decode", fmt.Sprintf("block=%d rows=%d cols=%d", b, nrows, len(c.need)))
		}
		if slices.Contains(keep, true) {
			for j, col := range c.need {
				c.cs.Decode(col, b, vals[j*nrows:(j+1)*nrows])
			}
		}
	}
	cols, pages := c.node.Cols, c.changed[first:last]
	row, out := buf[:c.cs.NumCols()], buf[c.cs.NumCols():]
	for i := 0; i <= nrows; i++ {
		for ; len(pages) > 0 && (i == nrows || int(c.start[pages[0]]) <= lo+i); pages = pages[1:] {
			if p := int(pages[0]); int(c.start[p]) >= lo { // it begins here
				if err := c.readHeap(p, p+1, clk, s, emit); err != nil {
					return err
				}
			}
		}
		if i == nrows || !keep[i] {
			continue
		}
		for j, col := range c.need {
			row[col] = vals[j*nrows+i]
		}
		// Runtime-filter rejects pay only the membership test, never the full
		// per-row charge — same admission order as the heap scans.
		if c.rf != nil && !c.rf.admit(clk, row) {
			continue
		}
		clk.RowWork(1)
		if c.residual != nil {
			ok, err := expr.EvalPredicate(c.residual, row, c.ctx.Params)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		lent := row
		if cols != nil {
			lent = appendCols(out[:0], row, cols)
		}
		if err := emit(lent); err != nil {
			return err
		}
		if poisonRows {
			// What the next survivor does to a row the consumer kept, made
			// visible at once (and for the block's last row too).
			scribble(lent)
		}
	}
	return nil
}

// blockScratch is the workspace one worker scans column blocks in, reused
// from block to block: the keep mask, one slab for the decoded columns (back
// to back) and the table-width row with the output row behind it, and the
// row a heap page projects into. Like rowBuf it is pooled whole and by
// pointer: one round trip per scan and worker, none per block, and a fresh
// one is four allocations whatever the scan's width.
type blockScratch struct {
	keep []bool
	slab []types.Value
	row  types.Row
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func getBlockScratch() *blockScratch { return blockScratchPool.Get().(*blockScratch) }

// putBlockScratch returns s to the pool, emptied: it must not pin decoded
// strings.
func putBlockScratch(s *blockScratch) {
	clear(s.slab[:cap(s.slab)])
	clear(s.row[:cap(s.row)])
	blockScratchPool.Put(s)
}

// size returns the scratch cut to a block of nrows rows: the mask, all true,
// ncols columns of nrows values back to back and a row of width values, the
// two of them unspecified.
func (s *blockScratch) size(nrows, ncols, width int) (keep []bool, vals []types.Value, row types.Row) {
	s.keep = slices.Grow(s.keep[:0], nrows)[:nrows]
	for i := range s.keep {
		s.keep[i] = true
	}
	s.slab = slices.Grow(s.slab[:0], nrows*ncols+width)[:nrows*ncols+width]
	return s.keep, s.slab[:nrows*ncols], s.slab[nrows*ncols:]
}

// ---------- the serial variant ----------

// colScan is the row-at-a-time columnar scan: it drains one morsel at a
// time through the shared core into one pooled buffer it reuses from morsel
// to morsel, so a handed-out row stays valid until the scan moves past its
// morsel — at the earliest the operator's next call. It mirrors seqScan's
// page-refill shape, and is a plain heap scan — correct results, heap
// charges — when the table has no snapshot at Open (PartitionTable dropped
// it under a cached plan).
type colScan struct {
	ctx  *Context
	node *plan.ScanNode
	heap *seqScan // when there is no snapshot

	sc          *colScanner
	m, nmorsels int // the next morsel, of how many
	scratch     *blockScratch
	buf         *rowBuf // the current morsel's survivors
	pos         int
}

func (s *colScan) Open() error {
	s.heap = nil
	s.sc = colScannerFor(s.ctx, s.node, bindRuntimeFilters(s.ctx, s.node.RFConsume, s.node.Cols))
	if s.sc == nil {
		s.heap = &seqScan{ctx: s.ctx, node: s.node}
		return s.heap.Open()
	}
	if s.buf == nil {
		n := s.sc.cs.BlockRows(0) // block 0 is as large as any
		s.buf, s.scratch = getRowBuf(n, n*len(s.node.Out)), getBlockScratch()
	}
	s.buf.reset()
	s.m, s.pos = 0, 0
	s.nmorsels, _ = scanGeometry(s.node, s.sc)
	return nil
}

func (s *colScan) Next() (types.Row, bool, error) {
	if s.heap != nil {
		return s.heap.Next()
	}
	for s.pos == len(s.buf.rows) {
		if s.m == s.nmorsels {
			return nil, false, nil
		}
		s.buf.reset()
		s.pos = 0
		s.m++
		err := s.sc.scanMorsel(s.m-1, s.ctx.Clock, s.scratch, func(r types.Row) error {
			s.buf.rows = append(s.buf.rows, s.buf.carve(r, nil))
			return nil
		})
		if err != nil {
			return nil, false, err
		}
	}
	s.pos++
	return s.buf.rows[s.pos-1], true, nil
}

func (s *colScan) Close() error {
	if s.heap != nil {
		return s.heap.Close()
	}
	if s.buf != nil {
		putRowBuf(s.buf)
		putBlockScratch(s.scratch)
	}
	s.sc, s.buf, s.scratch = nil, nil, nil
	return nil
}
