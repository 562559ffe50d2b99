package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Columnar scan execution. A pipeline's columnar source and the sharded
// join's probe scan share one core, colScanner.scanMorsel, so they issue the
// identical multiset of clock charges per morsel, whichever worker runs it.
// A block pays for the rows still alive:
//
//	ZoneCheck(1)       per pushed col⋈const conjunct of a block read, or one
//	                   for a block they rule out (rank puts the conjunct that
//	                   does first); then per enabled bounded runtime filter,
//	                   short-circuiting on the first that prunes;
//	SeqRead(span)      per column a pushed conjunct reads, of a block read;
//	FilterTest(units)  per pushed conjunct, most selective first (see rank),
//	                   each over the rows the ones before left alive: units is
//	                   those rows, or an RLE block's run count, and once no
//	                   row is alive nothing more is evaluated or charged;
//	SeqRead(span)      per other column the block decodes — the node's Cols
//	                   plus what its residual or a runtime filter reads — once
//	                   a row survives the conjuncts; only survivors are
//	                   decoded, and a column only a conjunct reads never is;
//	rf admission + RowWork(1) per row surviving the conjuncts, with the
//	                   residual predicate folded into that charge;
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

	pushed   []plan.PushedCmp // col ⋈ const conjuncts evaluated on encoded blocks
	never    bool             // a conjunct compares against NULL: nothing matches
	residual expr.Expr        // conjuncts that could not be pushed
	reads    []int            // a block's columns read: reads[:nfilter] the conjuncts', then the rest of need
	nfilter  int
	need     []int // table columns to decode, ascending

	start          []int32 // the snapshot's HeapMark.PageStart
	changed        []int32 // changed pages, ascending
	tailLo, tailHi int     // tail pages [tailLo, tailHi)
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
	pushed, residual, never := plan.PushDown(cjs, ctx.Params, cs.NumCols(), make([]plan.PushedCmp, 0, len(cjs)), rest[:0])
	c.pushed, c.residual, c.never = pushed, expr.AndAll(residual), never
	c.columns()
	return c
}

// columns lists, each ascending, the table columns the scan decodes — the
// columns it emits and any other its residual or runtime filters test — and
// those it reads from a block: first the pushed conjuncts' columns, then the
// rest of the decoded ones.
func (c *colScanner) columns() {
	const decoded, tested = 1, 2
	n := c.cs.NumCols()
	buf := make([]int, 3*n)
	mark := buf[:n]
	for col := range mark {
		if c.node.Cols == nil || slices.Contains(c.node.Cols, col) {
			mark[col] = decoded
		}
	}
	if c.residual != nil {
		c.residual.Walk(func(e expr.Expr) bool {
			if col, ok := e.(*expr.Col); ok && col.Index >= 0 && col.Index < n {
				mark[col.Index] |= decoded
			}
			return true
		})
	}
	if c.rf != nil {
		for _, col := range c.rf.cols {
			mark[col] |= decoded
		}
	}
	for _, p := range c.pushed {
		mark[p.Col] |= tested
	}
	c.reads, c.need = buf[n:n:2*n], buf[2*n:2*n]
	for col, m := range mark {
		if m&tested != 0 {
			c.reads = append(c.reads, col)
		}
	}
	c.nfilter = len(c.reads)
	for col, m := range mark {
		if m == decoded {
			c.reads = append(c.reads, col)
		}
		if m&decoded != 0 {
			c.need = append(c.need, col)
		}
	}
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
	return scanPageRange(c.ctx, c.node, c.rf, lo, hi, clk, &s.heap, emit)
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
// or its zones rule it out — charging the zone checks that decided. The
// pushed conjuncts are consulted in rank order, which puts one the zone rules
// out first: a block they prune pays one check, a block read one for each.
// Otherwise it returns that order, which the block's conjuncts run in.
func (c *colScanner) pruned(b int, clk *storage.Clock, covered bool, s *blockScratch) ([]ranked, bool) {
	if covered {
		c.skip(b, "delta")
		return nil, true
	}
	if c.never {
		clk.ZoneChecks(1)
		c.skip(b, "const")
		return nil, true
	}
	ord := c.rank(b, s)
	if len(ord) > 0 && ord[0].key < 0 {
		clk.ZoneChecks(1)
		c.skip(b, "zone")
		return nil, true
	}
	clk.ZoneChecks(len(ord))
	if c.rf != nil {
		for i, f := range c.rf.filters {
			if !f.enabled() || !f.bounded {
				continue
			}
			clk.ZoneChecks(1)
			zmin, zmax, ok := c.cs.Zone(c.rf.cols[i], b)
			if !ok || types.Compare(zmax, f.min) < 0 || types.Compare(zmin, f.max) > 0 {
				c.skip(b, "rf")
				return nil, true
			}
		}
	}
	return ord, false
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
	ord, skip := c.pruned(b, clk, covered == nrows, s)
	if skip {
		nrows = 0 // none of its positions: only the changed pages beginning in it
	}
	keep, vals, buf := s.size(nrows, len(c.need), c.cs.NumCols()+len(c.node.Cols))
	if nrows > 0 { // read: every block holds a row
		for _, p := range c.changed[first:last] {
			clear(keep[max(int(c.start[p])-lo, 0):min(int(c.start[p+1])-lo, nrows)])
		}
		alive, decoded := c.filter(b, nrows-covered, keep, clk, ord), 0
		atomic.AddInt64(&c.ctx.ColBlocksScanned, 1)
		if alive > 0 {
			for _, col := range c.reads[c.nfilter:] {
				clk.SeqRead(c.cs.PageSpan(col, b))
			}
			for j, col := range c.need {
				c.cs.DecodeKept(col, b, keep, vals[j*nrows:(j+1)*nrows])
			}
			decoded = len(c.need)
		}
		if c.ctx.Trace != nil {
			c.ctx.Trace.Event("columnar.decode", fmt.Sprintf("block=%d rows=%d alive=%d cols=%d", b, nrows, alive, decoded))
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

// filter reads the pushed conjuncts' columns of block b, of whose rows keep
// holds alive, and runs the conjuncts in order ord, each over the rows still
// alive and charged for what it tests, until none is. It returns how many
// rows are left.
func (c *colScanner) filter(b, alive int, keep []bool, clk *storage.Clock, ord []ranked) int {
	for _, col := range c.reads[:c.nfilter] {
		clk.SeqRead(c.cs.PageSpan(col, b))
	}
	for _, r := range ord {
		if alive == 0 {
			break
		}
		p := &c.pushed[r.i]
		var units int
		units, alive = c.cs.EvalBlock(p.Col, b, p.Op, p.V, keep)
		clk.FilterTestsBatch(units)
	}
	return alive
}

// ranked is a pushed conjunct's key in a block's order: -1 when the block's
// zone rules it out, else its class (0 for =, 2 for a range, 4 for <>) plus
// the share of the zone it admits, in [0, 1].
type ranked struct {
	key float64
	i   int // into colScanner.pushed
}

// rank orders the pushed conjuncts for block b, most selective first: one the
// zone rules out, then = before the ranges and <> after them, each class by
// the share of the block's zone admitted; ties go by column, operator, then
// value. The order depends on the block and the bound values alone, so every
// worker takes the same one, and a conjunction costs the same however it is
// written.
func (c *colScanner) rank(b int, s *blockScratch) []ranked {
	ord := s.ord[:0] // more than len(s.ord) conjuncts allocate
	for i := range c.pushed {
		p := &c.pushed[i]
		r := ranked{c.cs.ZoneShare(p.Col, b, p.Op, p.V), i}
		switch {
		case c.cs.ZonePrune(p.Col, b, p.Op, p.V):
			r.key = -1
		case p.Op == storage.CmpNE:
			r.key += 4
		case p.Op != storage.CmpEQ:
			r.key += 2
		}
		j := len(ord)
		for ord = append(ord, r); j > 0 && c.before(r, ord[j-1]); j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = r
	}
	return ord
}

func (c *colScanner) before(a, b ranked) bool {
	pa, pb := &c.pushed[a.i], &c.pushed[b.i]
	switch {
	case a.key != b.key:
		return a.key < b.key
	case pa.Col != pb.Col:
		return pa.Col < pb.Col
	case pa.Op != pb.Op:
		return pa.Op < pb.Op
	}
	return types.Compare(pa.V, pb.V) < 0
}

// blockScratch is the workspace a worker scans column blocks in, reused from
// block to block: the keep mask, one slab for the decoded columns (back to
// back) and the table-width row with the output row behind it, the rows a
// tail page decodes and projects into and the order the block's conjuncts
// run in. It is kept spare on its own, not with the rest of a worker's
// morselScratch, so that every spare one has a decode slab.
type blockScratch struct {
	keep []bool
	slab []types.Value
	heap [2]types.Row
	ord  [8]ranked
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
