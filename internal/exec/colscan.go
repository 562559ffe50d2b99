package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Columnar scan execution. Both variants — row-at-a-time (colScan) and
// morsel-parallel (scanMorsel's columnar branch) — share one block core,
// colScanner.scanBlock, so they issue the identical multiset of clock
// charges per block:
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
//	                   the residual predicate folded into that charge.
//
// A skipped block charges nothing beyond its zone checks, which is where the
// columnar speedup at low selectivity comes from.
type colScanner struct {
	ctx  *Context
	node *plan.ScanNode
	cs   *storage.ColumnStore
	rf   *rfConsumer

	need        []int       // table columns to decode, always non-nil and sorted
	pushed      []pushedCmp // col ⋈ const conjuncts evaluated on encoded blocks
	alwaysFalse bool        // a conjunct compares against NULL: nothing matches
	residual    expr.Expr   // conjuncts that could not be pushed
}

// pushedCmp is one col ⋈ const conjunct lowered onto the column store.
type pushedCmp struct {
	col int
	op  storage.CmpOp
	v   types.Value
}

// colScannerFor builds the shared columnar scan core for a scan node, or
// returns nil when the node is not columnar or the table's snapshot has been
// invalidated by DML since planning (callers then fall back to the heap,
// which is always correct). The returned scanner is read-only after
// construction and safe for concurrent scanBlock calls.
func colScannerFor(ctx *Context, node *plan.ScanNode, rf *rfConsumer) *colScanner {
	if !node.Columnar {
		return nil
	}
	cs := node.Table.Col()
	if cs == nil {
		return nil
	}
	c := &colScanner{ctx: ctx, node: node, cs: cs, rf: rf}
	var rest []expr.Expr
	for _, cj := range expr.Conjuncts(node.Filter) {
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
		rest = append(rest, cj)
	}
	c.residual = expr.AndAll(rest)
	c.need = decodeSet(node, rf, cs.NumCols())
	return c
}

// decodeSet lists the table columns a columnar scan of node decodes,
// ascending: the columns it emits and any other its filter or runtime
// filters test.
func decodeSet(node *plan.ScanNode, rf *rfConsumer, ncols int) []int {
	seen := make([]bool, ncols)
	for _, col := range node.Cols {
		seen[col] = true
	}
	if node.Filter != nil {
		node.Filter.Walk(func(n expr.Expr) bool {
			if col, ok := n.(*expr.Col); ok && col.Index >= 0 && col.Index < ncols {
				seen[col.Index] = true
			}
			return true
		})
	}
	if rf != nil {
		for _, col := range rf.cols {
			seen[col] = true
		}
	}
	need := make([]int, 0, ncols)
	for i, ok := range seen {
		if ok || node.Cols == nil {
			need = append(need, i)
		}
	}
	return need
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
// columnar scans use one morsel per column block (pages are irrelevant —
// I/O is charged per block inside scanBlock), heap scans one morsel per
// MorselPages pages. col is the scan's columnar core (nil for heap scans),
// resolved once by the caller so geometry and execution agree on the same
// snapshot.
func scanGeometry(node *plan.ScanNode, col *colScanner) (nmorsels, npages int) {
	if col != nil {
		return col.cs.NumBlocks(), 0
	}
	np := node.Table.Heap.NumPages()
	return morselCount(np, MorselPages), np
}

// skip records one pruned block: the metrics counter, and a trace event when
// tracing is on.
func (c *colScanner) skip(b int, why string) {
	atomic.AddInt64(&c.ctx.ColBlocksSkipped, 1)
	if c.ctx.Trace != nil {
		c.ctx.Trace.Event("columnar.skip", fmt.Sprintf("block=%d cause=%s", b, why))
	}
}

// scanBlock processes block b, charging clk per the contract above and
// lending every surviving row to emit. The block decodes into a table-width
// scratch row, on which the runtime filters and the residual are tested in
// table coordinates; a survivor is projected to the node's Cols into a second
// scratch row (nil Cols lends the first), so the row is valid only until emit
// returns and a consumer that keeps it copies it (RowArena). Safe for
// concurrent use across blocks: everything a call writes to is in s, which
// its caller owns.
func (c *colScanner) scanBlock(b int, clk *storage.Clock, s *blockScratch, emit func(types.Row) error) error {
	if c.alwaysFalse {
		clk.ZoneChecks(1)
		c.skip(b, "const")
		return nil
	}
	for i := range c.pushed {
		p := &c.pushed[i]
		clk.ZoneChecks(1)
		if c.cs.ZonePrune(p.col, b, p.op, p.v) {
			c.skip(b, "zone")
			return nil
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
				return nil
			}
		}
	}
	nrows := c.cs.BlockRows(b)
	for _, col := range c.need {
		clk.SeqRead(c.cs.PageSpan(col, b))
	}
	keep, vals, buf := s.size(nrows, len(c.need), c.cs.NumCols()+len(c.node.Cols))
	for i := range c.pushed {
		p := &c.pushed[i]
		clk.FilterTestsBatch(c.cs.EvalUnits(p.col, b))
		c.cs.EvalBlock(p.col, b, p.op, p.v, keep)
	}
	atomic.AddInt64(&c.ctx.ColBlocksScanned, 1)
	if c.ctx.Trace != nil {
		c.ctx.Trace.Event("columnar.decode", fmt.Sprintf("block=%d rows=%d cols=%d", b, nrows, len(c.need)))
	}
	if !slices.Contains(keep, true) {
		return nil
	}
	for j, col := range c.need {
		c.cs.Decode(col, b, vals[j*nrows:(j+1)*nrows])
	}
	cols := c.node.Cols
	row, out := buf[:c.cs.NumCols()], buf[c.cs.NumCols():]
	for i := 0; i < nrows; i++ {
		if !keep[i] {
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
// from block to block: the keep mask, and one slab for the decoded columns
// (back to back) and the table-width row with the output row behind it. Like
// rowBuf it is pooled whole and by pointer: one round trip per scan and
// worker, none per block, and a fresh one is three allocations whatever the
// scan's width.
type blockScratch struct {
	keep []bool
	slab []types.Value
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func getBlockScratch() *blockScratch { return blockScratchPool.Get().(*blockScratch) }

// putBlockScratch returns s to the pool, emptied: it must not pin decoded
// strings.
func putBlockScratch(s *blockScratch) {
	clear(s.slab[:cap(s.slab)])
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

// ---------- serial variants ----------

// blockCursor steps a serial columnar scan through its blocks: the rows
// scanBlock lends are copied into one pooled buffer the cursor reuses from
// block to block, so a handed-out row stays valid until the cursor moves
// past its block — at the earliest the operator's next call.
type blockCursor struct {
	sc      *colScanner
	block   int
	scratch *blockScratch
	buf     *rowBuf // the current block's survivors
	pos     int
}

// open binds the scan's runtime filters and resolves its columnar core;
// false when the snapshot is gone and the caller must scan the heap.
func (c *blockCursor) open(ctx *Context, node *plan.ScanNode) bool {
	c.sc = colScannerFor(ctx, node, bindRuntimeFilters(ctx, node.RFConsume, node.Cols))
	if c.sc == nil {
		return false
	}
	if c.buf == nil {
		n := c.sc.cs.BlockRows(0) // block 0 is as large as any
		c.buf, c.scratch = getRowBuf(n, n*len(node.Out)), getBlockScratch()
	}
	c.buf.reset()
	c.block, c.pos = 0, 0
	return true
}

// close returns the buffers to their pools.
func (c *blockCursor) close() {
	if c.buf != nil {
		putRowBuf(c.buf)
		putBlockScratch(c.scratch)
	}
	*c = blockCursor{}
}

// refill moves to the next block that yields rows; false after the last.
func (c *blockCursor) refill(clk *storage.Clock) (bool, error) {
	for c.block < c.sc.cs.NumBlocks() {
		c.buf.reset()
		c.pos = 0
		c.block++
		err := c.sc.scanBlock(c.block-1, clk, c.scratch, func(r types.Row) error {
			c.buf.rows = append(c.buf.rows, c.buf.carve(r, nil))
			return nil
		})
		if err != nil || len(c.buf.rows) > 0 {
			return err == nil, err
		}
	}
	return false, nil
}

// colScan is the row-at-a-time columnar scan: it drains one block at a time
// through the shared core, mirroring seqScan's page-refill shape. When the
// columnar snapshot vanished between planning and Open (DML on a cached
// plan), it degrades to a plain heap scan — correct results, heap charges.
type colScan struct {
	ctx  *Context
	node *plan.ScanNode
	cur  blockCursor
	heap *seqScan // fallback when the snapshot is gone
}

func (s *colScan) Open() error {
	s.heap = nil
	if s.cur.open(s.ctx, s.node) {
		return nil
	}
	s.heap = &seqScan{ctx: s.ctx, node: s.node}
	return s.heap.Open()
}

func (s *colScan) Next() (types.Row, bool, error) {
	if s.heap != nil {
		return s.heap.Next()
	}
	if s.cur.pos == len(s.cur.buf.rows) {
		if ok, err := s.cur.refill(s.ctx.Clock); !ok {
			return nil, false, err
		}
	}
	s.cur.pos++
	return s.cur.buf.rows[s.cur.pos-1], true, nil
}

func (s *colScan) Close() error {
	if s.heap != nil {
		return s.heap.Close()
	}
	s.cur.close()
	return nil
}
