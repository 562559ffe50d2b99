package exec

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/spare"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// ResolveDOP maps a configured degree of parallelism to a worker count:
// negative means "all cores" (runtime.NumCPU), zero and one mean one worker.
func ResolveDOP(n int) int {
	if n < 0 {
		return runtime.NumCPU()
	}
	if n == 0 {
		return 1
	}
	return n
}

// finishNode records the observed cardinality of a node that ran without an
// operator wrapper of its own the way the counted wrapper would have, so LEO
// feedback, EXPLAIN ANALYZE spans and the robustness metrics still see it: a
// scan or join fused into into's morsels, whose cost accrued under into's span
// (which its own names in place of a cost), or — into nil — the root of a
// build side packed straight into its table, with the cost it ran up.
func finishNode(ctx *Context, n plan.Node, actual float64, into plan.Node, cost float64) {
	n.Props().SetActualRows(actual)
	if sp := ctx.span(n); sp != nil && into != nil {
		sp.FinishFused(actual, into.Label())
	} else if sp != nil {
		sp.AddCost(cost)
		sp.AddRows(int64(actual))
		sp.Finish(actual)
	}
	if ctx.OnActual != nil {
		ctx.OnActual(n, actual)
	}
}

// scanPageRange scans the heap pages [lo, hi) of a table with the heap scan's
// charge discipline (one sequential read per page, runtime filters before
// per-row CPU), decoding each page's live rows into bufs[0] — only the
// node's Decode columns, each at its place in a full-width row — and lending
// each survivor projected to the node's Cols into bufs[1] (nil Cols lends
// the decoded row itself). A heap morsel is one such range; the sharded
// co-located join scans a partition's. Under the row-lifetime harness the
// positions left undecoded read as stale rows do.
func scanPageRange(ctx *Context, node *plan.ScanNode, rf *rfConsumer, lo, hi int, clk *storage.Clock, bufs *[2]types.Row, emit func(types.Row) error) error {
	var emitErr error
	for p := lo; p < hi; p++ {
		node.Table.Heap.ScanPage(clk, p, node.Decode, &bufs[0], func(_ storage.RID, r types.Row) bool {
			if poisonRows && node.Decode != nil {
				scribbleExcept(r, node.Decode)
			}
			if rf != nil && !rf.admit(clk, r) {
				return true
			}
			clk.RowWork(1)
			if node.Filter != nil {
				ok, err := expr.EvalPredicate(node.Filter, r, ctx.Params)
				if err != nil {
					emitErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			if node.Cols != nil {
				bufs[1] = appendCols(bufs[1][:0], r, node.Cols)
				r = bufs[1]
			}
			if err := emit(r); err != nil {
				emitErr = err
				return false
			}
			if poisonRows {
				scribble(r) // what the next survivor does to a row the consumer kept
			}
			return true
		})
		if emitErr != nil {
			return emitErr
		}
	}
	return nil
}

// ---------- the morsel pipeline ----------

// pipeline is the one shape execution takes for scans, streaming joins and
// hash aggregation: a source cut into morsels, a chain of join probes, and a
// sink. A morsel carries its rows from the decoded block (or heap page, or
// source row) through every probe into the sink without materialising
// anything in between: the scan lends its row, each probe hands on its reused
// output row, and only a sink that keeps rows copies them — once. The degree
// of parallelism is only how many workers drain it: one steps through the
// morsels in order on the context clock, more pull them from a shared cursor,
// each on a shard of the clock.
type pipeline struct {
	ctx    *Context
	root   plan.Node    // the node this pipeline's operator stands for: it names the workers and counts its own rows
	stages []*joinStage // probe order: stages[0] probes the source
	src    morselSource

	st   *morselScratch // one worker's, from open to close; nil when more drain it (open decides)
	m    int            // one worker's next morsel; at src.n the spilled builds' tails
	done bool           // the fused nodes are reported
}

// morselSource is a pipeline's source: a scan cut into morsels — a column
// block each, then MorselPages tail pages, or pages heap pages — or an
// operator, pulled row by row by one worker and drained into rows cut into
// MorselRows for more.
type morselSource struct {
	scan    *plan.ScanNode
	rf      *rfConsumer // the scan's runtime filters
	col     *colScanner // its columnar core (nil for heap scans)
	pages   int         // heap pages a morsel
	npages  int
	op      Operator
	rows    []types.Row
	n       int          // morsels
	scanned atomic.Int64 // rows a fused scan produced
}

// bindScan binds the scan once every build below it has published its runtime
// filters, and resolves its columnar core, so geometry, pruning and execution
// agree on one snapshot and delta.
func (s *morselSource) bindScan(ctx *Context, pages int) {
	s.rf = bindRuntimeFilters(ctx, s.scan.RFConsume, s.scan.Cols)
	if s.col = colScannerFor(ctx, s.scan, s.rf); s.col != nil {
		s.n = s.col.cs.NumBlocks() + morselCount(s.col.tailHi-s.col.tailLo, MorselPages)
		return
	}
	s.pages, s.npages = pages, s.scan.Table.Heap.NumPages()
	s.n = morselCount(s.npages, pages)
}

// morselRows is how many rows a store sizes itself for before a join fans a
// morsel out: a heap page's, an operator's one row. A column block's
// survivors are as often a handful as a block, so a page's is where its
// store starts, and it grows from there as a block keeps more.
func (s *morselSource) morselRows() int {
	if s.scan != nil {
		return storage.PageRows
	}
	return 1
}

// scanMorsel scans morsel m, charging clk the scan's way (the colScanner's for
// a columnar core), and lends every survivor to emit: valid until emit
// returns, never to be mutated.
func (s *morselSource) scanMorsel(ctx *Context, m int, clk *storage.Clock, st *morselScratch, emit func(types.Row) error) error {
	if s.col != nil {
		if st.block == nil {
			st.block = blockScratches.Get()
		}
		return s.col.scanMorsel(m, clk, st.block, emit)
	}
	lo, hi := morselRange(m, s.pages, s.npages)
	return scanPageRange(ctx, s.scan, s.rf, lo, hi, clk, &st.heap, emit)
}

// adder takes a lent row: a stage's prober, or a sink — a store, a table, an
// aggregation — that copies what it keeps.
type adder interface{ add(types.Row) error }

// morselSink receives the output of a pipeline more than one worker drains,
// morsel by morsel. reset announces n morsels; into returns worker st's way
// into the sink, charging clk, once per run; end closes morsel m on st and
// reports how many rows (or groups) it holds. Only one goroutine works on a
// morsel, many on a sink. One worker adds straight into its consumer.
type morselSink interface {
	reset(n int)
	into(st *morselScratch, clk *storage.Clock) adder
	end(m int, st *morselScratch) int
}

// morselScratch is one worker's workspace, kept whole from statement to
// statement: the rows a heap page decodes and projects into and the scratch
// column blocks decode into, a prober per stage
// linked in front of the sink, the store a one-worker gather refills, the
// packed rows an exchange keeps the worker's morsels in, and the table a
// morsel's partial groups accumulate in before they join the worker's groups —
// so steady-state morsels allocate nothing.
type morselScratch struct {
	heap   [2]types.Row
	block  *blockScratch // taken at the first column block
	probes []joinProbe
	sink   adder
	store  rowStore
	kept   *packedRows // and how many rows it kept before its current morsel
	mark   int
	part   partial
	arena  aggArena
}

// rowStore holds one morsel's rows carved from one slab, both reused from
// morsel to morsel (and, kept spare, from query to query). pos is the next
// row to lend.
type rowStore struct {
	rows []types.Row
	slab []types.Value
	pos  int
}

func (s *rowStore) add(r types.Row) error {
	off := len(s.slab)
	s.slab = append(s.slab, r...)
	s.rows = append(s.rows, s.slab[off:len(s.slab):len(s.slab)])
	return nil
}

func (s *rowStore) reset() { s.rows, s.slab, s.pos = s.rows[:0], s.slab[:0], 0 }

// open readies the store for rows rows of width values.
func (s *rowStore) open(rows, width int) {
	s.rows, s.slab = slices.Grow(s.rows, rows), slices.Grow(s.slab, rows*width)
}

// scratches and blockScratches keep released workspaces for the next
// statement's workers, where no garbage collection empties them.
var (
	scratches      spare.List[morselScratch]
	blockScratches spare.List[blockScratch]
)

func getScratch() *morselScratch { return scratches.Get() }

// release keeps st for the next statement, emptied of rows and builds. What
// a sink keeps — an exchange's store, the partial groups — it has taken
// already.
func (st *morselScratch) release() {
	if b := st.block; b != nil { // decoded strings must not stay pinned
		clear(b.slab[:cap(b.slab)])
		b.heap = [2]types.Row{emptied(b.heap[0]), emptied(b.heap[1])}
		blockScratches.Put(b)
	}
	st.heap = [2]types.Row{emptied(st.heap[0]), emptied(st.heap[1])}
	for i := range st.probes {
		st.probes[i].drop()
	}
	st.store.rows, st.store.slab = emptied(st.store.rows), emptied(st.store.slab)
	st.store.reset()
	st.block, st.probes, st.sink, st.kept, st.mark, st.part, st.arena = nil, st.probes[:0], nil, nil, 0, partial{}, aggArena{}
	scratches.Put(st)
}

// maxSpareValues caps the room a kept workspace's rows keep, in values and
// in row headers: an index scan's survivors and one key's matches grow with
// the data and must not stay pinned for the life of the process.
const maxSpareValues = 1 << 12

// emptied returns s cleared for the next statement, or nil past the cap.
func emptied[T any](s []T) []T {
	if cap(s) > maxSpareValues {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// link is where stage i's input goes: its prober, past the last stage the sink.
func (st *morselScratch) link(i int) adder {
	if i < len(st.probes) {
		return &st.probes[i]
	}
	return st.sink
}

// fusesJoin reports whether a node runs as a pipeline stage: every
// streaming join — nested-loop, index nested-loop, and hash but a sharded
// one.
func (ctx *Context) fusesJoin(n plan.Node) bool {
	switch j := n.(type) {
	case *plan.IndexJoinNode:
		return true
	case *plan.JoinNode:
		return j.Alg == plan.JoinNL || j.Alg == plan.JoinHash && !ctx.shardEligible(j)
	}
	return false
}

// fuse sets p up as root's operator over input: every streaming join down
// the probe side a stage, and a scan at the bottom the source; anything else
// there is built as an operator.
func (p *pipeline) fuse(ctx *Context, root, input plan.Node) error {
	p.ctx, p.root = ctx, root
	for ctx.fusesJoin(input) {
		s, err := newJoinStage(ctx, input)
		if err != nil {
			return err
		}
		p.stages = append(p.stages, s)
		input = input.Children()[0]
	}
	slices.Reverse(p.stages)
	if sc, ok := input.(*plan.ScanNode); ok {
		p.src.scan = sc
		return nil
	}
	var err error
	p.src.op, err = build(input, ctx)
	return err
}

// open erects the hash builds outermost first — the order in which a hash
// join opening its build side and then its probe child would — so grants,
// spill decisions and runtime-filter publication keep that order. A build
// that spilled leaves the pipeline to one worker: its deferred probe rows go
// to runs in source order. The source comes next: a scan binds its runtime
// filters once every build has published its own, and one worker reads a
// heap a page at a time, as a consumer that stops early has always paid; an
// operator opens. The nested-loop inners come last, innermost first, as a
// nested-loop join drains its inner once its probe child is open: for any mix
// of stages this is the order in which the joins, opened one inside the
// other, would. An operator source is then pulled by one worker or drained
// for more.
func (p *pipeline) open() error {
	one := p.ctx.DOP <= 1
	for i := len(p.stages) - 1; i >= 0; i-- {
		if err := p.stages[i].openBuild(); err != nil {
			return err
		}
		one = one || p.stages[i].spill != nil
	}
	s := &p.src
	if one {
		p.st = getScratch()
	}
	switch {
	case s.scan != nil && one:
		s.bindScan(p.ctx, 1)
	case s.scan != nil:
		s.bindScan(p.ctx, MorselPages)
	default:
		s.n = math.MaxInt // until it runs dry
		if err := s.op.Open(); err != nil {
			return err
		}
	}
	for _, j := range p.stages {
		if err := j.openInner(); err != nil {
			return err
		}
	}
	if s.op == nil || one {
		return nil
	}
	var rows RowSet
	_, err := pull(s.op, nil, rows.add)
	s.op = nil // drained and closed
	s.rows = rows.Rows()
	s.n = morselCount(len(s.rows), MorselRows)
	return err
}

// chain links worker st's probers, one per stage and charging clk, in front
// of sink.
func (p *pipeline) chain(st *morselScratch, clk *storage.Clock, sink adder) {
	st.sink = sink
	st.probes = slices.Grow(st.probes, len(p.stages))[:len(p.stages)]
	for i, j := range p.stages {
		j.ready(&st.probes[i])
		st.probes[i].clk = clk
	}
	for i := range st.probes {
		st.probes[i].down = st.link(i + 1)
	}
}

// morsel is the one morsel loop: source morsel m — or, from an operator, its
// next row — through every stage's probe into the sink, charging clk. Each
// join's reused output row is consumed by the next link before the probe
// returns.
func (p *pipeline) morsel(m int, st *morselScratch, clk *storage.Clock) error {
	s, entry := &p.src, st.link(0)
	switch {
	case s.scan != nil:
		var n int64
		err := s.scanMorsel(p.ctx, m, clk, st, func(r types.Row) error {
			n++
			return entry.add(r)
		})
		s.scanned.Add(n)
		return err
	case s.op != nil:
		r, ok, err := s.op.Next()
		if !ok && err == nil {
			s.n = m // ran dry
		}
		if !ok || err != nil {
			return err
		}
		return entry.add(r)
	}
	lo, hi := morselRange(m, MorselRows, len(s.rows))
	for _, r := range s.rows[lo:hi] {
		if err := entry.add(r); err != nil {
			return err
		}
	}
	return nil
}

// run drives a pipeline of more than one worker into sink: every morsel on
// the worker pool, each worker through a chain of its own.
func (p *pipeline) run(sink morselSink) error {
	sts := make([]*morselScratch, p.ctx.DOP)
	sink.reset(p.src.n)
	err := runMorsels(p.ctx, p.root.Label(), p.src.n, p.ctx.DOP, func(m, w int, clk *storage.Clock) (int, error) {
		st := sts[w]
		if st == nil {
			st = getScratch()
			sts[w] = st
			p.chain(st, clk, sink.into(st, clk))
		}
		if err := p.morsel(m, st, clk); err != nil {
			return 0, err
		}
		return sink.end(m, st), nil
	})
	for _, st := range sts {
		if st != nil {
			p.flush(st)
			st.release()
		}
	}
	if err == nil {
		p.report()
	}
	return err
}

// drain runs a one-worker pipeline to the end into sink.
func (p *pipeline) drain(sink adder) error {
	p.chain(p.st, p.ctx.Clock, sink)
	for {
		if more, err := p.step(); err != nil || !more {
			return err
		}
	}
}

// step runs one worker's next morsel and, once the source has run dry, the
// spilled builds' tails; it reports false when nothing is left.
func (p *pipeline) step() (bool, error) {
	switch m := p.m; {
	case m < p.src.n:
		err := p.morsel(m, p.st, p.ctx.Clock)
		if m < p.src.n {
			p.m++
		}
		return true, err
	case m == p.src.n:
		p.m++
		return true, p.tails()
	}
	p.report()
	return false, nil
}

// tails pushes what each spilled build joins once the probe input is
// exhausted — the innermost build first, so each tail passes the probes of the
// builds above it before theirs — through the stages above it. A tail is
// replayed whole, and charged, before the first of its rows goes up.
func (p *pipeline) tails() error {
	for k, j := range p.stages {
		if j.spill == nil {
			continue
		}
		var tail RowSet
		if err := j.spill.finish(tail.add); err != nil {
			return err
		}
		next := p.st.link(k + 1)
		for _, r := range tail.Rows() {
			j.emitted.Add(1)
			if err := next.add(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush adds worker st's probe output counts to the stages'.
func (p *pipeline) flush(st *morselScratch) {
	for i := range st.probes {
		p.stages[i].emitted.Add(st.probes[i].rows)
		st.probes[i].rows = 0
	}
}

// report records the fused nodes once: when the run ends, or at close with
// the rows so far when it ended early — a consumer stopped, an error — as a
// counted operator does.
func (p *pipeline) report() {
	if p.done {
		return
	}
	p.done = true
	if p.st != nil {
		p.flush(p.st)
	}
	if s := p.src.scan; s != nil && s != p.root {
		finishNode(p.ctx, s, float64(p.src.scanned.Load()), p.root, 0)
	}
	for _, j := range p.stages {
		if n := j.of(); n != p.root {
			finishNode(p.ctx, n, float64(j.emitted.Load()), p.root, 0)
		}
	}
}

// close releases every build still held, outermost first as nested joins
// close, then the scratch and a source operator. Safe to call twice.
func (p *pipeline) close() error {
	p.report()
	for i := len(p.stages) - 1; i >= 0; i-- {
		p.stages[i].release()
	}
	if p.st != nil {
		p.st.release()
		p.st = nil
	}
	if op := p.src.op; op != nil {
		p.src.op = nil
		return op.Close()
	}
	return nil
}

// ---------- scans and streaming joins ----------

// gather is the operator of a scan and of a streaming join: its pipeline
// gathered in morsel order — exactly the heap order of the scan and, because
// every table chains rows in build order, the row order of the joins. One
// worker runs a morsel per refill into a store it reuses; more run them all at
// Open into an exchange. The charge multiset is the same either way, issued on
// worker shard clocks and merged at the gather barrier.
type gather struct {
	pipeline
	x *exchange // more workers'
}

func newGather(ctx *Context, n plan.Node) (*gather, error) {
	g := &gather{}
	return g, g.fuse(ctx, n, n)
}

func (g *gather) Open() error {
	if err := g.open(); err != nil {
		return err
	}
	if g.st == nil {
		g.x = &exchange{}
		return g.run(g.x)
	}
	s := &g.src
	g.st.store.open(s.morselRows(), len(g.root.Schema()))
	g.chain(g.st, g.ctx.Clock, &g.st.store)
	return nil
}

func (g *gather) Next() (types.Row, bool, error) {
	if g.x != nil {
		r, ok := g.x.next()
		return r, ok, nil
	}
	s := &g.st.store
	for s.pos == len(s.rows) {
		s.reset()
		if more, err := g.step(); !more || err != nil {
			return nil, false, err
		}
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}

func (g *gather) Close() error {
	g.x = nil
	return g.close()
}

// joinStage is one streaming join of a pipeline, which the pipeline's morsels
// probe lock-free, each worker through its own joinProbe. A hash join's build
// side is drained once, packed, into the one joinTable and hashed and linked
// in build order (in parallel morsels when there are workers to share it), or
// partitioned into a spill when the broker's grant does not cover it. A
// nested-loop join's inner is drained once, boxed, and every probe row loops
// over it. An index nested-loop join looks each probe row's key up in its
// B+ tree.
type joinStage struct {
	ctx       *Context
	node      *plan.JoinNode      // a join of two inputs, or ...
	ix        *plan.IndexJoinNode // ... an index nested-loop join
	tab       *joinTable          // what a hash join's probers probe: the build, or a spill's resident partitions
	spill     *spillJoin          // set when the build exceeded its grant
	grant     int
	nested    bool        // a nested-loop join ...
	inner     []types.Row // ... and the inner it drained
	right     Operator    // the build side or inner, or ...
	rightPipe *pipeline   // ... a build side's pipeline of its own, drained straight into the table
	held      bool        // the grant is out: release owes the broker
	emitted   atomic.Int64
}

// newJoinStage sets n up as a stage: a hash join's build side, a nested-loop
// join's inner as an operator, an index nested-loop join as it is.
func newJoinStage(ctx *Context, n plan.Node) (*joinStage, error) {
	s := &joinStage{ctx: ctx}
	var err error
	switch n := n.(type) {
	case *plan.IndexJoinNode:
		s.ix = n
	case *plan.JoinNode:
		if s.node, s.nested = n, n.Alg == plan.JoinNL; s.nested {
			s.right, err = build(n.Kids[1], ctx)
		} else {
			err = s.side(n.Kids[1])
		}
	}
	return s, err
}

// of is the node the stage stands for.
func (j *joinStage) of() plan.Node {
	if j.ix != nil {
		return j.ix
	}
	return j.node
}

// side builds the build side: a pipeline of its own when it is one (a scan, a
// fused join), an operator otherwise.
func (j *joinStage) side(n plan.Node) error {
	if _, ok := n.(*plan.ScanNode); ok || j.ctx.fusesJoin(n) {
		j.rightPipe = &pipeline{}
		return j.rightPipe.fuse(j.ctx, n, n)
	}
	var err error
	j.right, err = build(n, j.ctx)
	return err
}

// openBuild drains the build side and erects the hash table under a fresh
// grant, or the resident partitions of a spillJoin when the grant does not
// cover the build.
func (j *joinStage) openBuild() error {
	if j.held || j.ix != nil || j.nested {
		return nil
	}
	build, err := j.drainBuild()
	if err != nil || j.settle(build) {
		return err
	}
	return j.buildTable(build)
}

// settle is what follows the drain of every hash build, sharded or not:
// derive the runtime filters the plan announced from the drained rows, take
// one grant, and spill the rows when they are over it — one sequence at any
// DOP and shard count, so scheduled-budget runs negotiate at the same steps.
// It reports whether the rows spilled.
func (j *joinStage) settle(build *joinTable) bool {
	n := build.rows.n
	buildRuntimeFilters(j.ctx, j.node, &build.rows)
	j.grant, j.held = j.ctx.Mem.Grant(n), true
	if n <= j.grant {
		return false
	}
	j.openSpill(&build.rows, 0)
	return true
}

// drainBuild drains the build side into a table yet to be indexed: an
// operator row by row; a pipeline straight into the table's rows at one
// worker and through an exchange for more, then closed, its root reported as
// its operator would have been.
func (j *joinStage) drainBuild() (*joinTable, error) {
	tab := &joinTable{}
	p := j.rightPipe
	if p == nil {
		_, err := runOp(j.right, nil, tab.rows.add)
		return tab, err
	}
	w := j.ctx.Clock.StartWatch()
	err := p.open()
	switch {
	case err != nil:
	case p.st != nil:
		err = p.drain(&tab.rows)
	default:
		var x exchange
		if err = p.run(&x); err == nil {
			for r, ok := x.next(); ok; r, ok = x.next() {
				tab.rows.add(r)
			}
		}
	}
	if cerr := p.close(); err == nil {
		err = cerr
	}
	finishNode(j.ctx, p.root, float64(tab.rows.n), nil, w.Elapsed())
	return tab, err
}

// openInner drains a nested-loop join's inner, once, charging a unit of row
// work per row: what every probe row loops over.
func (j *joinStage) openInner() error {
	if !j.nested {
		return nil
	}
	inner, err := drain(j.right)
	if err != nil {
		return err
	}
	j.inner = inner
	j.ctx.Clock.RowWork(len(inner))
	return nil
}

// release returns a hash build's table, spill runs and grant, and drops a
// nested-loop inner. Safe to call twice, and on a stage that never opened.
func (j *joinStage) release() {
	j.inner = nil
	if !j.held {
		return
	}
	j.held, j.tab = false, nil
	if j.spill != nil {
		j.spill.close()
		j.spill = nil
	}
	j.ctx.Mem.Release(j.grant)
	j.grant = 0
}

// buildTable hashes the drained build rows in morsels, charging the insert
// cost, then links the table in build order, so probing stays deterministic.
func (j *joinStage) buildTable(tab *joinTable) error {
	rows := tab.rows.n
	tab.reserve()
	// A key scratch per worker, 80 B apart: off each other's cache lines.
	nk := len(j.node.RightKeys)
	keys := make([]types.Value, max(1, j.ctx.DOP)*(nk+2))
	err := runMorsels(j.ctx, j.node.Label()+" build", morselCount(rows, MorselRows), j.ctx.DOP, func(m, w int, clk *storage.Clock) (int, error) {
		lo, hi := morselRange(m, MorselRows, rows)
		return tab.hashRange(lo, hi, j.node.RightKeys, keys[w*(nk+2):][:nk], clk, 2), nil // insert costs double a probe (see cost model)
	})
	if err != nil {
		return err
	}
	tab.link()
	j.tab = tab
	return nil
}

// ---------- hash aggregation ----------

// aggregate is hash aggregation, the sink of whatever pipeline its input
// fuses into — scan → probe* → accumulate, nothing materialised. One worker
// folds every row into an aggSink: a grant of its own, resident groups up to
// it, spilled partitions re-aggregated recursively. More accumulate per-morsel
// partials merged at the gather barrier in morsel order, so results are
// reproducible run to run; SUM/AVG over floats may differ from one worker's
// in the last bits because partial sums reassociate the additions (exact for
// integer data), and the partials take no grant. Either way the groups come
// out sorted on the key.
type aggregate struct {
	pipeline
	node      *plan.AggNode
	partials  []aggSeg // more workers: each morsel's groups
	aggOutput          // Next
}

// partial is one worker's adder into its morsel's partial groups: the probe a
// row costs one worker's aggSink, then the fold.
type partial struct {
	aggTable
	clk    *storage.Clock
	params []types.Value
}

func (p *partial) add(r types.Row) error {
	p.clk.Probes(1)
	_, _, err := p.fold(r, p.params, math.MaxInt)
	return err
}

func (a *aggregate) Open() error {
	lay := newAggLayout(a.node)
	if err := a.open(); err != nil {
		return err
	}
	if a.st == nil {
		a.lay = lay
		if err := a.run(a); err != nil {
			return err
		}
		a.sort(a.ctx.Clock, lay, a.partials, a.mergePartials())
		a.partials = nil
		return nil
	}
	sink := newAggSink(a.ctx, lay, 0)
	defer sink.close()
	if err := a.drain(sink); err != nil {
		return err
	}
	segs, err := sink.finish()
	if err == nil {
		a.sort(a.ctx.Clock, lay, segs, allGroups(segs))
	}
	return err
}

func (a *aggregate) reset(n int) { a.partials = make([]aggSeg, n) }

func (a *aggregate) into(st *morselScratch, clk *storage.Clock) adder {
	st.part = partial{aggTable: newAggTable(a.lay), clk: clk, params: a.ctx.Params}
	st.arena.share = (len(a.partials) + a.ctx.DOP - 1) / a.ctx.DOP
	return &st.part
}

// end keeps morsel m's groups.
func (a *aggregate) end(m int, st *morselScratch) int {
	a.partials[m] = st.part.compact(&st.arena)
	return a.partials[m].n
}

// mergePartials folds the per-morsel partials, in morsel order, into the
// first partial that holds each key, and returns the groups left, in the
// order they were first seen. Keys stay where they are and are found by their
// stored hashes. Grouping work was already charged per input row in the
// morsels; the merge itself is free on the clock, exactly like one worker's
// in-table accumulation.
func (a *aggregate) mergePartials() []groupRef {
	var ix hashIndex
	var refs []groupRef
	for si := range a.partials {
		p := &a.partials[si]
	groups:
		for i, h := range p.hashes {
			key := a.lay.key(p, i)
			for g := ix.first(h); g >= 0; g = ix.after(g, h) {
				if dst := &a.partials[refs[g].seg]; rowsEqual(a.lay.key(dst, int(refs[g].i)), key) {
					a.lay.merge(dst, int(refs[g].i), p, i)
					continue groups
				}
			}
			ix.add(h)
			refs = append(refs, groupRef{int32(si), int32(i)})
		}
	}
	return refs
}

func (a *aggregate) Close() error {
	a.aggOutput = aggOutput{}
	return a.close()
}
