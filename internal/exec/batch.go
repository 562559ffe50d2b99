package exec

import (
	"rqp/internal/expr"
	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// BatchRows is the target number of rows per batch (~4 heap pages), large
// enough to amortize per-batch dispatch and accounting, small enough to stay
// cache-resident.
const BatchRows = 256

// Batch is a column-agnostic row batch with a selection vector: Sel lists
// the indices of live rows in Rows, in order. Operators refill a batch in
// place; its contents — the Rows slice and every row in it — are valid only
// until the producer's next NextBatch or Close (the Operator row-ownership
// contract, batched): producers back a batch's rows with one reused slab,
// and a consumer that keeps a row copies it (RowArena).
type Batch struct {
	Rows []types.Row
	Sel  []int
}

// Len returns the number of selected (live) rows.
func (b *Batch) Len() int { return len(b.Sel) }

// BatchOperator is the vectorized iterator interface. NextBatch refills b
// and returns the number of selected rows; zero means the input is
// exhausted — operators loop internally past fully filtered batches, so a
// non-zero return always carries at least one live row. Row ownership is
// Operator's, per batch: what NextBatch put in b is the operator's and is
// valid only until the next call (NextBatch or Close) on it.
type BatchOperator interface {
	Open() error
	NextBatch(b *Batch) (int, error)
	Close() error
}

// identitySel resets sel to the identity selection 0..n-1.
func identitySel(sel []int, n int) []int {
	sel = sel[:0]
	for i := 0; i < n; i++ {
		sel = append(sel, i)
	}
	return sel
}

// batchAdapter presents a batch subtree through the row-at-a-time Operator
// interface, so vectorized fragments compose with operators that are not
// vectorized (sort, limit, the adaptive joins, ...). Cardinality accounting
// lives in the countedBatch wrappers inside the subtree, so the adapter
// itself is invisible to spans and feedback.
type batchAdapter struct {
	b   BatchOperator
	buf Batch
	pos int
}

func (a *batchAdapter) Open() error {
	a.pos = 0
	a.buf.Rows = a.buf.Rows[:0]
	a.buf.Sel = a.buf.Sel[:0]
	return a.b.Open()
}

func (a *batchAdapter) Next() (types.Row, bool, error) {
	for {
		if a.pos < len(a.buf.Sel) {
			r := a.buf.Rows[a.buf.Sel[a.pos]]
			a.pos++
			return r, true, nil
		}
		n, err := a.b.NextBatch(&a.buf)
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		a.pos = 0
	}
}

func (a *batchAdapter) Close() error { return a.b.Close() }

// countedBatch is the batch-path counterpart of counted: it records the
// node's actual output cardinality, fires the feedback hook and (when
// tracing) accrues the node's span — charged once per batch with exact row
// counts, so recorded actuals, span costs and LEO/POP checkpoints are
// identical to the row path while the per-row wrapper overhead disappears.
type countedBatch struct {
	b    BatchOperator
	node plan.Node
	ctx  *Context
	span *obs.Span // nil when untraced
	n    float64
	done bool
}

func (c *countedBatch) Open() error {
	if c.span == nil {
		return c.b.Open()
	}
	w := c.ctx.Clock.StartWatch()
	err := c.b.Open()
	c.span.AddCost(w.Elapsed())
	return err
}

func (c *countedBatch) NextBatch(b *Batch) (int, error) {
	if c.span == nil {
		n, err := c.b.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			c.finish()
		} else {
			c.n += float64(n)
		}
		return n, nil
	}
	w := c.ctx.Clock.StartWatch()
	n, err := c.b.NextBatch(b)
	c.span.AddCost(w.Elapsed())
	c.span.AddCall()
	if err != nil {
		return 0, err
	}
	if n == 0 {
		c.finish()
	} else {
		c.n += float64(n)
		c.span.AddRows(int64(n))
	}
	return n, nil
}

func (c *countedBatch) finish() {
	if c.done {
		return
	}
	c.done = true
	c.node.Props().SetActualRows(c.n)
	if c.span != nil {
		c.span.Finish(c.n)
	}
	if c.ctx.OnActual != nil {
		c.ctx.OnActual(c.node, c.n)
	}
}

func (c *countedBatch) Close() error {
	c.finish()
	if c.span == nil {
		return c.b.Close()
	}
	w := c.ctx.Clock.StartWatch()
	err := c.b.Close()
	c.span.AddCost(w.Elapsed())
	return err
}

// vecEligible reports whether build should take the batch path for a node:
// the context must enable vectorization, execution must be serial and
// unsharded (with DOP above one the morsel operators own the hot loops and
// use compiled expressions instead; sharded runs likewise compile their
// shard-local hot loops — row/vec cost parity makes either path exact),
// and the planner must have marked the node.
func (ctx *Context) vecEligible(p *plan.Props) bool {
	return ctx.Vec && ctx.DOP <= 1 && ctx.Shards <= 1 && p.Vectorized
}

// buildBatch constructs the vectorized operator for a node marked by
// plan.MarkVectorized, wrapping it (and recursively its batch children) in
// countedBatch. Returns nil when the node has no batch implementation; the
// caller then falls back to the row path for the whole subtree.
func buildBatch(n plan.Node, ctx *Context) (BatchOperator, error) {
	var op BatchOperator
	switch node := n.(type) {
	case *plan.ScanNode:
		if node.Columnar {
			op = &batchColScan{ctx: ctx, node: node}
		} else {
			op = &batchSeqScan{ctx: ctx, node: node}
		}
	case *plan.FilterNode:
		child, err := buildBatchChild(node.Kids[0], ctx)
		if err != nil || child == nil {
			return nil, err
		}
		op = &batchFilter{ctx: ctx, src: node.Pred, child: child}
	case *plan.ProjectNode:
		child, err := buildBatchChild(node.Kids[0], ctx)
		if err != nil || child == nil {
			return nil, err
		}
		op = &batchProject{ctx: ctx, exprs: node.Exprs, child: child}
	case *plan.JoinNode:
		if node.Alg != plan.JoinHash {
			return nil, nil
		}
		left, err := buildBatchChild(node.Kids[0], ctx)
		if err != nil || left == nil {
			return nil, err
		}
		right, err := build(node.Kids[1], ctx) // build side stays on the row path
		if err != nil {
			return nil, err
		}
		op = &batchHashJoin{hashBuild: hashBuild{ctx: ctx, node: node}, left: left, right: right}
	case *plan.AggNode:
		if node.Alg != plan.AggHash {
			return nil, nil
		}
		child, err := buildBatchChild(node.Kids[0], ctx)
		if err != nil || child == nil {
			return nil, err
		}
		op = &batchHashAgg{ctx: ctx, node: node, child: child}
	default:
		return nil, nil
	}
	var span *obs.Span
	if ctx.Trace != nil {
		span = ctx.Trace.SpanOf(n)
	}
	return wrapBatchOp(&countedBatch{b: op, node: n, ctx: ctx, span: span}), nil
}

func buildBatchChild(n plan.Node, ctx *Context) (BatchOperator, error) {
	if !n.Props().Vectorized {
		return nil, nil
	}
	return buildBatch(n, ctx)
}

// ---------- batch scan ----------

// batchSeqScan reads a heap table in physical order, one batch (~4 pages) at
// a time, evaluating the pushed-down filter through a compiled predicate
// into the selection vector. Charges are identical to seqScan: one
// sequential read per page, CPU per examined row. The selected rows are
// projected to the node's Cols into a slab reused from batch to batch.
type batchSeqScan struct {
	ctx    *Context
	node   *plan.ScanNode
	pred   *expr.Pred
	rf     *rfConsumer
	npages int
	page   int
	buf    *rowBuf // its slab backs the batch's rows (b.Rows is their index)
}

func (s *batchSeqScan) Open() error {
	s.npages = s.node.Table.Heap.NumPages()
	s.page = 0
	if s.node.Filter != nil {
		s.pred = expr.CompilePredicate(s.node.Filter)
	}
	s.rf = bindRuntimeFilters(s.ctx, s.node.RFConsume, s.node.Cols)
	if s.node.Cols != nil && s.buf == nil {
		// A batch stops at the first page that fills it.
		s.buf = getRowBuf(0, (BatchRows+storage.PageRows)*len(s.node.Cols))
	}
	return nil
}

func (s *batchSeqScan) NextBatch(b *Batch) (int, error) {
	for {
		b.Rows = b.Rows[:0]
		for s.page < s.npages && len(b.Rows) < BatchRows {
			s.node.Table.Heap.ScanPage(s.ctx.Clock, s.page, func(_ storage.RID, r types.Row) bool {
				b.Rows = append(b.Rows, r)
				return true
			})
			s.page++
		}
		if len(b.Rows) == 0 {
			return 0, nil
		}
		b.Sel = identitySel(b.Sel, len(b.Rows))
		if s.rf != nil {
			// Runtime filters shrink the selection vector in place before
			// the per-row charge, in the same row order as seqScan, so
			// charges and adaptive-disable decisions stay row/vec identical.
			b.Sel = s.rf.admitBatch(s.ctx.Clock, b.Rows, b.Sel)
		}
		s.ctx.Clock.RowWorkBatch(len(b.Sel))
		if s.pred != nil {
			var err error
			b.Sel, err = s.pred.EvalBatch(b.Rows, b.Sel, s.ctx.Params)
			if err != nil {
				return 0, err
			}
		}
		if len(b.Sel) > 0 {
			if s.node.Cols != nil {
				s.buf.reset()
				for _, i := range b.Sel {
					b.Rows[i] = s.buf.carve(b.Rows[i], s.node.Cols)
				}
			}
			return len(b.Sel), nil
		}
	}
}

func (s *batchSeqScan) Close() error {
	if s.buf != nil {
		putRowBuf(s.buf)
		s.buf = nil
	}
	return nil
}

// ---------- batch filter ----------

// batchFilter refines the selection vector with a compiled predicate,
// charging one unit of row work per input row like filterOp.
type batchFilter struct {
	ctx   *Context
	src   expr.Expr
	pred  *expr.Pred
	child BatchOperator
}

func (f *batchFilter) Open() error {
	f.pred = expr.CompilePredicate(f.src)
	return f.child.Open()
}

func (f *batchFilter) NextBatch(b *Batch) (int, error) {
	for {
		n, err := f.child.NextBatch(b)
		if err != nil || n == 0 {
			return 0, err
		}
		f.ctx.Clock.RowWorkBatch(n)
		b.Sel, err = f.pred.EvalBatch(b.Rows, b.Sel, f.ctx.Params)
		if err != nil {
			return 0, err
		}
		if len(b.Sel) > 0 {
			return len(b.Sel), nil
		}
	}
}

func (f *batchFilter) Close() error { return f.child.Close() }

// ---------- batch project ----------

// batchProject computes compiled output expressions into a per-batch value
// slab (one allocation per batch instead of one per row), charging one unit
// of row work per input row like projectOp.
type batchProject struct {
	ctx   *Context
	exprs []expr.Expr
	fns   []expr.EvalFn
	child BatchOperator
	in    Batch
	slab  []types.Value
}

func (p *batchProject) Open() error {
	p.fns = expr.CompileAll(p.exprs)
	return p.child.Open()
}

func (p *batchProject) NextBatch(b *Batch) (int, error) {
	n, err := p.child.NextBatch(&p.in)
	if err != nil || n == 0 {
		return 0, err
	}
	p.ctx.Clock.RowWorkBatch(n)
	w := len(p.fns)
	if need := n * w; cap(p.slab) < need {
		p.slab = make([]types.Value, need)
	}
	b.Rows = b.Rows[:0]
	off := 0
	for _, i := range p.in.Sel {
		r := p.in.Rows[i]
		out := p.slab[off : off+w : off+w]
		for j, fn := range p.fns {
			v, err := fn(r, p.ctx.Params)
			if err != nil {
				return 0, err
			}
			out[j] = v
		}
		off += w
		b.Rows = append(b.Rows, types.Row(out))
	}
	b.Sel = identitySel(b.Sel, len(b.Rows))
	return len(b.Rows), nil
}

func (p *batchProject) Close() error { return p.child.Close() }

// ---------- batch hash join (probe side) ----------

// batchHashJoin builds exactly like hashJoin (row-at-a-time drain of the
// right child, same hashBuild: grant, table or spill) and probes with left
// batches through the same joinProbe, with the residual compiled. An output
// batch holds every match of one input batch, so it may exceed BatchRows;
// its rows live in one slab reused from batch to batch. Under memory
// pressure probe rows of spilled partitions defer (copied out of the
// volatile batch), and their output — already charged row by row inside the
// replay — streams as tail batches after the probe input is exhausted.
type batchHashJoin struct {
	hashBuild
	left  BatchOperator
	right Operator

	probe *joinProbe
	in    Batch
	slab  []types.Value
	tail  []types.Row
	tpos  int
	lDone bool
}

func (j *batchHashJoin) Open() error {
	if err := j.openSerial(j.right); err != nil {
		return err
	}
	if j.node.Residual != nil {
		j.residual = expr.CompilePredicate(j.node.Residual)
	}
	j.probe = j.prober()
	j.tail, j.tpos, j.lDone = nil, 0, false
	return j.left.Open()
}

// tailBatch streams the deferred-partition output in BatchRows chunks. Its
// rows were charged (row work, probes) inside the spill replay, so no batch
// charge applies here.
func (j *batchHashJoin) tailBatch(b *Batch) int {
	if j.tpos >= len(j.tail) {
		return 0
	}
	end := j.tpos + BatchRows
	if end > len(j.tail) {
		end = len(j.tail)
	}
	b.Rows = append(b.Rows[:0], j.tail[j.tpos:end]...)
	b.Sel = identitySel(b.Sel, len(b.Rows))
	j.tpos = end
	return len(b.Rows)
}

func (j *batchHashJoin) NextBatch(b *Batch) (int, error) {
	clk := j.ctx.Clock
	for {
		if j.lDone {
			return j.tailBatch(b), nil
		}
		n, err := j.left.NextBatch(&j.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			j.lDone = true
			if j.tail, err = j.replay(); err != nil {
				return 0, err
			}
			continue
		}
		b.Rows = b.Rows[:0]
		j.slab = j.slab[:0]
		for _, i := range j.in.Sel {
			j.probe.begin(clk, j.in.Rows[i])
			for {
				r, ok, err := j.probe.next(clk)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				// A slab that grows moves on to a new array; the rows already
				// cut from the old one stay valid there.
				off := len(j.slab)
				j.slab = append(j.slab, r...)
				b.Rows = append(b.Rows, types.Row(j.slab[off:len(j.slab):len(j.slab)]))
			}
		}
		if len(b.Rows) > 0 {
			b.Sel = identitySel(b.Sel, len(b.Rows))
			return len(b.Rows), nil
		}
	}
}

func (j *batchHashJoin) Close() error {
	j.tail = nil
	j.release()
	return j.left.Close()
}

// ---------- batch hash aggregation ----------

// batchHashAgg consumes its child in batches at Open, accumulating through
// compiled group and aggregate-argument expressions, then emits the sorted
// groups in batches. Charges match hashAgg: one hash probe per input row,
// one unit of row work per output group. Group state is bounded by the same
// aggSink as the row path — rows are fed in identical (serial) order, so
// the spill trigger, partition contents and recursion charges are
// batch/row identical under pressure.
type batchHashAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child BatchOperator

	groupFns []expr.EvalFn
	argFns   []expr.EvalFn // index-aligned with node.Aggs; nil for COUNT(*)

	out []types.Row
	pos int
}

func (a *batchHashAgg) Open() error {
	if err := a.child.Open(); err != nil {
		return err
	}
	a.groupFns = expr.CompileAll(a.node.GroupExprs)
	a.argFns = make([]expr.EvalFn, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		if !spec.Star {
			a.argFns[i] = expr.Compile(spec.Arg)
		}
	}
	sink := newAggSink(a.ctx, a.node, 0)
	defer sink.close()
	key := make([]types.Value, len(a.groupFns))
	var in Batch
	for {
		n, err := a.child.NextBatch(&in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		a.ctx.Clock.ProbesBatch(n)
		for _, i := range in.Sel {
			r := in.Rows[i]
			for gi, fn := range a.groupFns {
				v, err := fn(r, a.ctx.Params)
				if err != nil {
					return err
				}
				key[gi] = v
			}
			if err := sink.add(key, r, func(g *group) error {
				return accumGroupFns(g, a.node, a.argFns, r, a.ctx.Params)
			}); err != nil {
				return err
			}
		}
	}
	order, err := sink.finish()
	if err != nil {
		return err
	}
	// Global aggregate with no groups and no input still yields one row.
	if len(order) == 0 && len(a.node.GroupExprs) == 0 {
		order = append(order, &group{states: make([]aggState, len(a.node.Aggs))})
	}
	a.out = groupRows(a.ctx.Clock, a.node, order)
	a.pos = 0
	return nil
}

func (a *batchHashAgg) NextBatch(b *Batch) (int, error) {
	if a.pos >= len(a.out) {
		return 0, nil
	}
	end := a.pos + BatchRows
	if end > len(a.out) {
		end = len(a.out)
	}
	b.Rows = append(b.Rows[:0], a.out[a.pos:end]...)
	b.Sel = identitySel(b.Sel, len(b.Rows))
	a.pos = end
	return len(b.Rows), nil
}

func (a *batchHashAgg) Close() error {
	a.out = nil
	return a.child.Close()
}
