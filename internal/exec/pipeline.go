package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
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
// per-row CPU), lending each survivor projected to the node's Cols into
// *scratch (nil Cols lends the stored row itself). A heap morsel is one such
// range; the sharded co-located join scans a partition's.
func scanPageRange(ctx *Context, node *plan.ScanNode, rf *rfConsumer, lo, hi int, clk *storage.Clock, scratch *types.Row, emit func(types.Row) error) error {
	var emitErr error
	for p := lo; p < hi; p++ {
		node.Table.Heap.ScanPage(clk, p, func(_ storage.RID, r types.Row) bool {
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
				*scratch = appendCols((*scratch)[:0], r, node.Cols)
				r = *scratch
			}
			if err := emit(r); err != nil {
				emitErr = err
				return false
			}
			if poisonRows && node.Cols != nil {
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

// pipeline is the one shape execution takes for scans, hash joins and hash
// aggregation: a source cut into morsels, a chain of hash-join probes, and a
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
	stages []*hashStage // probe order: stages[0] probes the source
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

// morselRows is how many rows one worker's morsel holds at most before a join
// fans it out: a column block's, a heap page's, an operator's one row.
func (s *morselSource) morselRows() int {
	switch {
	case s.col != nil:
		return s.col.cs.BlockRows(0) // block 0 is as large as any
	case s.scan != nil:
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
			st.block = blockScratchPool.Get().(*blockScratch)
		}
		return s.col.scanMorsel(m, clk, st.block, emit)
	}
	lo, hi := morselRange(m, s.pages, s.npages)
	return scanPageRange(ctx, s.scan, s.rf, lo, hi, clk, &st.row, emit)
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

// morselScratch is one worker's workspace, pooled whole: the row a heap page
// projects into and the scratch column blocks decode into, a prober per stage
// linked in front of the sink, the store a one-worker gather refills, the
// packed rows an exchange keeps the worker's morsels in, and the table a
// morsel's partial groups accumulate in before they join the worker's groups —
// so steady-state morsels allocate nothing.
type morselScratch struct {
	row    types.Row
	block  *blockScratch // taken at the first column block
	probes []*joinProbe
	sink   adder
	store  rowStore
	kept   *packedRows // and how many rows it kept before its current morsel
	mark   int
	part   partial
	arena  aggArena
}

// rowStore holds one morsel's rows carved from one slab, both reused from
// morsel to morsel (and, pooled, from query to query) — or, byRef, the rows
// themselves: a heap scan's full-width rows are the stored rows, lent as
// they are. pos is the next row to lend.
type rowStore struct {
	rows  []types.Row
	slab  []types.Value
	byRef bool
	pos   int
}

func (s *rowStore) add(r types.Row) error {
	if s.byRef {
		s.rows = append(s.rows, r)
		return nil
	}
	off := len(s.slab)
	s.slab = append(s.slab, r...)
	s.rows = append(s.rows, s.slab[off:len(s.slab):len(s.slab)])
	return nil
}

func (s *rowStore) reset() { s.rows, s.slab, s.pos = s.rows[:0], s.slab[:0], 0 }

// open readies the store for rows rows of width values, carved or (byRef)
// not.
func (s *rowStore) open(rows, width int, byRef bool) {
	if s.byRef = byRef; byRef {
		width = 0
	}
	s.rows, s.slab = slices.Grow(s.rows, rows), slices.Grow(s.slab, rows*width)
}

var scratchPool = sync.Pool{New: func() any { return new(morselScratch) }}

func getScratch() *morselScratch { return scratchPool.Get().(*morselScratch) }

// release returns st to the pool, emptied of rows and builds. What a sink
// keeps — an exchange's store, the partial groups — it has taken already.
func (st *morselScratch) release() {
	if b := st.block; b != nil { // decoded strings must not stay pinned
		clear(b.slab[:cap(b.slab)])
		clear(b.row[:cap(b.row)])
		blockScratchPool.Put(b)
	}
	clear(st.row[:cap(st.row)])
	clear(st.probes)
	clear(st.store.rows[:cap(st.store.rows)])
	clear(st.store.slab[:cap(st.store.slab)])
	st.store.reset()
	st.block, st.probes, st.sink, st.kept, st.mark, st.part, st.arena = nil, st.probes[:0], nil, nil, 0, partial{}, aggArena{}
	scratchPool.Put(st)
}

// link is where stage i's input goes: its prober, past the last stage the sink.
func (st *morselScratch) link(i int) adder {
	if i < len(st.probes) {
		return st.probes[i]
	}
	return st.sink
}

// fusesJoin reports whether a node runs as a pipeline stage: every hash join
// but a sharded one.
func (ctx *Context) fusesJoin(n plan.Node) bool {
	j, ok := n.(*plan.JoinNode)
	return ok && j.Alg == plan.JoinHash && !ctx.shardEligible(j)
}

// fuse sets p up as root's operator over input: every hash join down the
// probe side a stage, and a scan at the bottom the source; anything else
// there is built as an operator.
func (p *pipeline) fuse(ctx *Context, root, input plan.Node) error {
	p.ctx, p.root = ctx, root
	for ctx.fusesJoin(input) {
		j := input.(*plan.JoinNode)
		s := &hashStage{hashBuild: hashBuild{ctx: ctx, node: j}}
		if err := s.side(j.Kids[1]); err != nil {
			return err
		}
		p.stages = append(p.stages, s)
		input = j.Kids[0]
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

// open erects the builds outermost first — the order in which a join opening
// its build side and then its probe child would — so grants, spill decisions
// and runtime-filter publication keep that order. A build that spilled leaves
// the pipeline to one worker: its deferred probe rows go to runs in source
// order. The source comes last: a scan binds its runtime filters once every
// build has published its own, and one worker reads a heap a page at a time,
// as a consumer that stops early has always paid; an operator opens, to be
// pulled by one worker or drained for more.
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
	case one:
		s.n = math.MaxInt // until it runs dry
		return s.op.Open()
	default:
		rows, err := drain(s.op)
		s.op = nil // drained and closed
		s.rows, s.n = rows, morselCount(len(rows), MorselRows)
		return err
	}
	return nil
}

// chain links worker st's probers, one per stage and charging clk, in front
// of sink.
func (p *pipeline) chain(st *morselScratch, clk *storage.Clock, sink adder) {
	st.sink = sink
	for _, j := range p.stages {
		pr := j.prober()
		pr.clk = clk
		st.probes = append(st.probes, pr)
	}
	for i, pr := range st.probes {
		pr.down = st.link(i + 1)
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
	for i, pr := range st.probes {
		p.stages[i].emitted.Add(pr.rows)
		pr.rows = 0
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
		if j.node != p.root {
			finishNode(p.ctx, j.node, float64(j.emitted.Load()), p.root, 0)
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

// ---------- scans and hash joins ----------

// gather is the operator of a scan and of a hash join: its pipeline gathered
// in morsel order — exactly the heap order of the scan and, because every
// table chains rows in build order, the row order of the joins. One worker
// runs a morsel per refill into a store it reuses; more run them all at Open
// into an exchange. The charge multiset is the same either way, issued on
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
	g.st.store.open(s.morselRows(), len(g.root.Schema()), len(g.stages) == 0 && s.scan != nil && s.col == nil && s.scan.Cols == nil)
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

// hashStage is one hash join of a pipeline. The build side is drained once,
// packed, into the one joinTable and hashed and linked in build order (in
// parallel morsels when there are workers to share it); the pipeline's
// morsels then probe the frozen table lock-free, each worker through its own
// joinProbe.
type hashStage struct {
	hashBuild
	right     Operator  // the build side, or ...
	rightPipe *pipeline // ... a pipeline of its own, drained straight into the table
	held      bool      // the grant is out: release owes the broker
	emitted   atomic.Int64
}

// side builds the build side: a pipeline of its own when it is one (a scan, a
// fused join), an operator otherwise.
func (j *hashStage) side(n plan.Node) error {
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
// cover the build. One worker derives the runtime filters the plan announced
// from the drained rows before the grant; more derive them per hashing morsel
// — or here, after the grant, when the build spills. (The sharded join's
// fallback hands over a build it already spilled.)
func (j *hashStage) openBuild() error {
	if j.held {
		return nil
	}
	build, err := j.drainBuild()
	if err != nil {
		return err
	}
	n, one := build.rows.n, j.ctx.DOP <= 1
	if one {
		buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, n, build.rows.value)
	}
	j.grant, j.held = j.ctx.Mem.Grant(n), true
	if n > j.grant {
		if !one {
			buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, n, build.rows.value)
		}
		j.openSpill(&build.rows, 0)
		return nil
	}
	return j.buildTable(build, !one)
}

// drainBuild drains the build side into a table yet to be indexed: an
// operator row by row; a pipeline straight into the table's rows at one
// worker and through an exchange for more, then closed, its root reported as
// its operator would have been.
func (j *hashStage) drainBuild() (*joinTable, error) {
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

// release returns the build's table, spill runs and grant. Safe to call
// twice, and on a build that never opened.
func (j *hashStage) release() {
	if j.held {
		j.held = false
		j.hashBuild.release()
	}
}

// buildTable hashes the drained build rows in morsels, charging the insert
// cost — and, with filters, filling one partial Bloom per runtime filter per
// morsel — then links the table in build order, so probing stays
// deterministic. Partial Blooms are OR-merged in morsel order at the barrier
// and published before any probe morsel can run.
func (j *hashStage) buildTable(tab *joinTable, filters bool) error {
	rows := tab.rows.n
	n := morselCount(rows, MorselRows)
	tab.reserve()
	nf := 0
	if filters && j.ctx.RF != nil {
		nf = len(j.node.RFilters)
	}
	var rfParts [][]*RuntimeFilter
	if nf > 0 {
		rfParts = make([][]*RuntimeFilter, n)
	}
	// A key scratch per worker, 80 B apart: off each other's cache lines.
	nk := len(j.node.RightKeys)
	keys := make([]types.Value, max(1, j.ctx.DOP)*(nk+2))
	err := runMorsels(j.ctx, j.node.Label()+" build", n, j.ctx.DOP, func(m, w int, clk *storage.Clock) (int, error) {
		lo, hi := morselRange(m, MorselRows, rows)
		if nf > 0 {
			// Partials are sized for the full build so the barrier merge is
			// a plain word-wise OR; the batch charge equals the per-row
			// charges over this morsel's rows.
			fs := make([]*RuntimeFilter, nf)
			for i, sp := range j.node.RFilters {
				fs[i] = newRuntimeFilter(sp.ID, rows)
				col := j.node.RightKeys[sp.Col]
				for r := lo; r < hi; r++ {
					fs[i].add(tab.rows.value(r, col))
				}
			}
			clk.FilterTestsBatch((hi - lo) * nf)
			rfParts[m] = fs
		}
		return tab.hashRange(lo, hi, j.node.RightKeys, keys[w*(nk+2):][:nk], clk, 2), nil // insert costs double a probe (see cost model)
	})
	if err != nil {
		return err
	}
	for i, sp := range j.node.RFilters[:nf] {
		f := newRuntimeFilter(sp.ID, rows)
		for _, fs := range rfParts {
			f.merge(fs[i])
		}
		j.ctx.RF.publish(f)
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("rf.build", fmt.Sprintf("filter=%d keys=%d bits=%d partials=%d", f.ID, rows, len(f.words)*64, n))
		}
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
