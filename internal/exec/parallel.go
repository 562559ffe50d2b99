package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// ResolveDOP maps a configured degree of parallelism to an effective worker
// count: negative means "all cores" (runtime.NumCPU), zero and one mean
// serial.
func ResolveDOP(n int) int {
	if n < 0 {
		return runtime.NumCPU()
	}
	if n == 0 {
		return 1
	}
	return n
}

// parallelEligible reports whether build should take the morsel-driven path
// for a node: the context must carry a DOP above one and the planner must
// have marked the node (plan.MarkParallel).
func (ctx *Context) parallelEligible(p *plan.Props) bool {
	return ctx.DOP > 1 && p.Parallel
}

// finishNode records a fused node's observed cardinality the way the
// counted wrapper would have, so LEO feedback, EXPLAIN ANALYZE spans and
// the robustness metrics still see the node even though no standalone
// operator ran for it. Its cost accrued under the span of the node it fused
// into, which the span names in place of a cost.
func finishNode(ctx *Context, n plan.Node, actual float64, into plan.Node) {
	n.Props().SetActualRows(actual)
	if ctx.Trace != nil {
		if sp := ctx.Trace.SpanOf(n); sp != nil {
			sp.FinishFused(actual, into.Label())
		}
	}
	if ctx.OnActual != nil {
		ctx.OnActual(n, actual)
	}
}

// scanMorsel reads one morsel of a table, charging clk exactly as the
// serial scan would (one sequential read per page, CPU per examined row),
// and lends rows passing the filter to emit. rf, when non-nil, is the
// scan's bound runtime-filter consumer (rejects pay only the membership
// test, on the worker's shard clock). col, when non-nil, is the scan's
// columnar core: a morsel is then one column block or a run of tail pages,
// scanned through the shared core with charges identical to the serial
// columnar scan's. Either way the row is lent — valid only until emit
// returns, never to be mutated; scratch is the caller's, reused from morsel
// to morsel.
func scanMorsel(ctx *Context, node *plan.ScanNode, rf *rfConsumer, col *colScanner, m, npages int, clk *storage.Clock, scratch *scanScratch, emit func(types.Row) error) error {
	if col != nil {
		if scratch.block == nil {
			scratch.block = getBlockScratch()
		}
		return col.scanMorsel(m, clk, scratch.block, emit)
	}
	lo, hi := morselRange(m, MorselPages, npages)
	return scanPageRange(ctx, node, rf, lo, hi, clk, &scratch.row, emit)
}

// scanScratch is what one worker scans morsels with: the row a heap scan
// projects into, and the block workspace a columnar scan took from the pool
// at its first block, which release returns.
type scanScratch struct {
	row   types.Row
	block *blockScratch
}

func (s *scanScratch) release() {
	if s.block != nil {
		putBlockScratch(s.block)
		s.block = nil
	}
}

// scanPageRange scans the heap pages [lo, hi) of a table with the exact
// serial-scan charge discipline (one sequential read per page, runtime
// filters before per-row CPU), lending each survivor projected to the node's
// Cols into *scratch (nil Cols lends the stored row itself). scanMorsel
// delegates here; the sharded co-located join path uses it directly with a
// partition's page range.
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

// pipeline is the one shape morsel-driven execution takes: a source cut into
// morsels, a chain of hash-join probes, and a sink. One morsel carries its
// rows from the decoded block (or heap page, or row range) through every
// probe into the sink without materialising anything in between: the scan
// lends its row, each probe hands on its reused output row, and only a sink
// that keeps rows copies them — once.
type pipeline struct {
	ctx  *Context
	root plan.Node // the node this pipeline's operator stands for: it names the workers and counts its own rows

	src    morselSource        // a scan fused into the morsels (src.scan), or ...
	child  Operator            // ... an operator, drained into src.rows
	stages []*parallelHashJoin // probe order: stages[0] probes the source
}

// morselSource is a pipeline source: the morsels of a scan (bound by open),
// or rows cut into MorselRows.
type morselSource struct {
	scan    *plan.ScanNode
	rf      *rfConsumer // the scan's runtime filters
	col     *colScanner // its columnar core (nil for heap scans)
	npages  int
	rows    []types.Row
	n       int          // morsels
	scanned atomic.Int64 // rows a fused scan produced
}

func rowSource(rows []types.Row) *morselSource {
	return &morselSource{rows: rows, n: morselCount(len(rows), MorselRows)}
}

// morselSink receives a pipeline's output morsel by morsel. reset announces n
// morsels; their rows are lent (a scan's scratch row, a probe's output row:
// valid until the consumer returns). begin returns the consumer of morsel
// m's rows, charging clk, and the function that ends the morsel and reports
// how many rows (or groups) it holds; only one goroutine works on a morsel,
// many on a sink.
type morselSink interface {
	reset(n int)
	begin(m int, clk *storage.Clock, st *morselScratch) (RowSink, func() int)
}

// morselScratch is one worker's reusable workspace: what the source scan
// lends its rows from, a prober per stage (key scratch, output row) and the
// packed rows an exchange keeps its morsels in — ranges of the one store,
// which the exchange keeps alive — so steady-state morsels allocate nothing
// per row; an aggregation accumulates each morsel in agg and retains the
// compacted groups.
type morselScratch struct {
	scanScratch
	probes []*joinProbe
	kept   *packedRows
	agg    aggTable
}

// fusesJoin reports whether a join runs as a pipeline stage.
func (ctx *Context) fusesJoin(j *plan.JoinNode) bool {
	return ctx.parallelEligible(&j.Prop) && j.Alg == plan.JoinHash && !ctx.shardEligible(j)
}

// newPipeline fuses the fragment under input for root's operator: every
// parallel-marked hash join down the probe side becomes a stage (its build
// side an operator of its own), and the parallel-marked scan at the bottom
// the source; anything else there is built as an operator and drained.
func newPipeline(ctx *Context, root, input plan.Node) (*pipeline, error) {
	p := &pipeline{ctx: ctx, root: root}
	for {
		j, ok := input.(*plan.JoinNode)
		if !ok || !ctx.fusesJoin(j) {
			break
		}
		right, err := build(j.Kids[1], ctx)
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, &parallelHashJoin{hashBuild: hashBuild{ctx: ctx, node: j}, right: right})
		input = j.Kids[0]
	}
	slices.Reverse(p.stages)
	if sc, ok := input.(*plan.ScanNode); ok && sc.Prop.Parallel {
		p.src.scan = sc
		return p, nil
	}
	var err error
	p.child, err = build(input, ctx)
	return p, err
}

// exec opens the pipeline and runs it into sink. Whatever happens, no build
// outlives it except — on success — the one root itself stands for, which
// close releases.
func (p *pipeline) exec(sink morselSink) error {
	err := p.open()
	if err == nil {
		err = p.run(sink)
	}
	if err != nil {
		p.close()
	}
	return err
}

// open erects the builds outermost first — the order in which a join opening
// its build side and then its probe child would — so grants, spill
// decisions and runtime-filter publication keep their serial order. The
// source comes after the last of them: a scan binds its runtime filters once
// every build has published its own — the filter of the join right above is
// the common consumer — and resolves its columnar core, so block pruning
// sees them; an operator is drained.
func (p *pipeline) open() error {
	for i := len(p.stages) - 1; i >= 0; i-- {
		if err := p.stages[i].openBuild(); err != nil {
			return err
		}
	}
	s := &p.src
	if s.scan != nil {
		s.rf = bindRuntimeFilters(p.ctx, s.scan.RFConsume, s.scan.Cols)
		s.col = colScannerFor(p.ctx, s.scan, s.rf)
		s.n, s.npages = scanGeometry(s.scan, s.col)
		return nil
	}
	rows, err := drain(p.child)
	p.child = nil // drained and closed; close must not close it again
	s.rows, s.n = rows, morselCount(len(rows), MorselRows)
	return err
}

// run drives the bound source through the stages into sink. The chain breaks
// at a build that spilled: what lies below it runs as a pipeline of its own
// into an exchange, the spilled join probes that serially through the spill
// machinery, and what lies above continues from its output. Graceful
// degradation trades parallelism for robustness — correct results and
// serial-identical charges under any budget, at DOP cost.
func (p *pipeline) run(sink morselSink) error {
	src, lo := &p.src, 0
	// through runs stages[lo:hi] into an exchange and continues from its rows.
	through := func(lo, hi int) error {
		var x exchange
		err := p.segment(src, lo, hi, &x)
		src = rowSource(x.take())
		return err
	}
	for k, j := range p.stages {
		if j.spill == nil {
			continue
		}
		if k > lo {
			if err := through(lo, k); err != nil {
				return err
			}
		}
		if k == len(p.stages)-1 {
			return p.segment(src, k, k+1, sink)
		}
		if err := through(k, k+1); err != nil {
			return err
		}
		lo = k + 1
	}
	return p.segment(src, lo, len(p.stages), sink)
}

// segment runs src through stages[lo:hi] into sink, then reports and frees
// the stages (and the scan) that fused into it. Morsels run on the worker
// pool — unless the segment is one spilled join: then every probe row is
// handled on the context clock, rows of resident partitions matching at once
// and the rest deferred to probe runs, and the spilled partitions replay
// after the last morsel, all into a single sink morsel in serial order.
func (p *pipeline) segment(src *morselSource, lo, hi int, sink morselSink) error {
	stages := p.stages[lo:hi]
	label := p.root.Label()
	if hi < len(p.stages) {
		label = stages[len(stages)-1].node.Label()
	}
	// One scratch per worker, garbage when the segment returns (a sync.Pool
	// would keep its rows reachable until the second collection after it).
	sts := make([]*morselScratch, max(1, p.ctx.DOP))
	scratch := func(w int) *morselScratch {
		if sts[w] == nil {
			sts[w] = &morselScratch{probes: make([]*joinProbe, len(stages))}
			for i, j := range stages {
				sts[w].probes[i] = j.prober()
			}
		}
		return sts[w]
	}
	var err error
	if len(stages) == 1 && stages[0].spill != nil {
		j, st := stages[0], scratch(0)
		sink.reset(1)
		emit, end := sink.begin(0, p.ctx.Clock, st)
		err = runMorsels(p.ctx, label, src.n, 1, func(m, _ int, clk *storage.Clock) (int, error) {
			return 0, p.morsel(src, stages, st, m, clk, emit)
		})
		if err == nil {
			err = j.spill.finish(func(r types.Row) error {
				j.emitted.Add(1)
				return emit(r)
			})
		}
		if err == nil {
			end()
		}
	} else {
		sink.reset(src.n)
		err = runMorsels(p.ctx, label, src.n, p.ctx.DOP, func(m, w int, clk *storage.Clock) (int, error) {
			st := scratch(w)
			emit, end := sink.begin(m, clk, st)
			if err := p.morsel(src, stages, st, m, clk, emit); err != nil {
				return 0, err
			}
			return end(), nil
		})
	}
	for _, st := range sts {
		if st != nil {
			st.release()
		}
	}
	if err != nil {
		return err
	}
	if src.scan != nil && src.scan != p.root {
		finishNode(p.ctx, src.scan, float64(src.scanned.Load()), p.root)
	}
	for _, j := range stages {
		if j.node != p.root {
			finishNode(p.ctx, j.node, float64(j.emitted.Load()), p.root)
			j.release()
		}
	}
	return nil
}

// morsel is the one morsel loop: source morsel m through every stage's probe
// into emit, charging clk. Each join's reused output row is consumed by the
// next stage before the probe returns.
func (p *pipeline) morsel(src *morselSource, stages []*parallelHashJoin, st *morselScratch, m int, clk *storage.Clock, emit RowSink) error {
	for i := len(stages) - 1; i >= 0; i-- {
		pr, down := st.probes[i], emit
		emit = func(lr types.Row) error { return pr.each(clk, lr, down) }
	}
	if src.scan == nil {
		lo, hi := morselRange(m, MorselRows, len(src.rows))
		for _, r := range src.rows[lo:hi] {
			if err := emit(r); err != nil {
				return err
			}
		}
	} else {
		rows, down := 0, emit
		err := scanMorsel(p.ctx, src.scan, src.rf, src.col, m, src.npages, clk, &st.scanScratch, func(r types.Row) error {
			rows++
			return down(r)
		})
		if err != nil {
			return err
		}
		src.scanned.Add(int64(rows))
	}
	for i, pr := range st.probes {
		stages[i].emitted.Add(pr.rows)
		pr.rows = 0
	}
	return nil
}

// close releases every build still held and closes a source operator that
// was never drained. Safe to call twice.
func (p *pipeline) close() error {
	for _, j := range p.stages {
		j.release()
	}
	if c := p.child; c != nil {
		p.child = nil
		return c.Close()
	}
	return nil
}

// ---------- parallel scan and hash join ----------

// parallelGather is the morsel-driven scan and the morsel-driven hash join
// alike: a pipeline — a parallel-marked scan, under any chain of
// parallel-marked hash joins — gathered through an exchange in morsel
// order: exactly the heap order the serial scan emits, and, because every
// table chains rows in build order, the row order of the serial hashJoin.
// The charge multiset matches serial too, issued on worker shard clocks and
// merged at the gather barrier, so simulated cost is unchanged.
type parallelGather struct {
	pipe *pipeline
	x    exchange
}

func (g *parallelGather) Open() error { return g.pipe.exec(&g.x) }

func (g *parallelGather) Next() (types.Row, bool, error) {
	r, ok := g.x.next()
	return r, ok, nil
}

func (g *parallelGather) Close() error {
	g.x = exchange{}
	return g.pipe.close()
}

// parallelHashJoin is one hash join of a pipeline. The build side is drained
// once, packed, into the one joinTable, hashed there in parallel morsels and
// linked at the gather barrier; the pipeline's morsels then probe the
// frozen table lock-free, each worker through its own joinProbe.
type parallelHashJoin struct {
	hashBuild
	right   Operator
	held    bool         // the grant is out: release owes the broker
	emitted atomic.Int64 // rows joined so far
}

// openBuild drains the build side and erects the hash table. (The sharded
// join's fallback hands over a build it already spilled.)
func (j *parallelHashJoin) openBuild() error {
	if j.held {
		return nil
	}
	build, err := drainTable(j.right)
	if err != nil {
		return err
	}
	j.grant, j.held = j.ctx.Mem.Grant(build.rows.n), true
	if build.rows.n > j.grant {
		// The build delegates to the serial spill machinery. Runtime filters
		// derive serially from the drained build first, so the probe-side
		// scans still shrink the spilled probe volume.
		buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, build.rows.n, build.rows.value)
		j.openSpill(&build.rows, 0)
		return nil
	}
	return j.buildTable(build)
}

// release returns the build's table, spill runs and grant. Safe to call
// twice, and on a build that never opened.
func (j *parallelHashJoin) release() {
	if j.held {
		j.held = false
		j.hashBuild.release()
	}
}

// buildTable hashes the drained build rows in parallel morsels, charging the
// serial join's insert cost — and, when the plan announced runtime filters,
// filling one partial Bloom per filter per morsel — then links the table at
// the gather barrier in build order, so probing stays deterministic. Partial
// Blooms are OR-merged in morsel order at the same barrier and published
// before any probe morsel can run.
func (j *parallelHashJoin) buildTable(tab *joinTable) error {
	rows := tab.rows.n
	n := morselCount(rows, MorselRows)
	tab.reserve()
	nf := 0
	if j.ctx.RF != nil {
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
			// a plain word-wise OR; the batch charge equals the serial
			// build's per-row charges over this morsel's rows.
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

// ---------- parallel aggregation ----------

// parallelAgg runs hash aggregation as per-morsel partial group states
// merged at a gather barrier, then sorts the merged groups on the key —
// the same deterministic output order as the serial hashAgg. Partials
// merge in morsel order, so results are reproducible run to run; SUM/AVG
// over floats may differ from serial in the last bits because partial sums
// reassociate the additions (exact for integer data).
//
// It is the accumulating sink of a pipeline that fuses as deep as the plan
// allows — scan → probe* → accumulate in one morsel, no row materialised —
// and only breaks at the gather barrier, where partials merge.
type parallelAgg struct {
	ctx  *Context
	node *plan.AggNode
	pipe *pipeline

	partials  []aggSeg // per morsel: its groups, compacted
	aggOutput          // Next; lay is set from Open on
}

func (a *parallelAgg) Open() error {
	a.lay = newAggLayout(a.node)
	if err := a.pipe.exec(a); err != nil {
		return err
	}
	a.open(a.ctx.Clock, a.lay, a.partials, a.mergePartials())
	a.partials = nil
	return nil
}

func (a *parallelAgg) reset(n int) { a.partials = make([]aggSeg, n) }

// begin opens morsel m's partial in the worker's table: every row is
// accumulated as it arrives, charging the serial hashAgg's per-row probe, and
// the morsel's end retains the groups alone.
func (a *parallelAgg) begin(m int, clk *storage.Clock, st *morselScratch) (RowSink, func() int) {
	t := &st.agg
	if t.lay == nil {
		*t = newAggTable(a.lay)
	}
	return func(r types.Row) error {
			clk.Probes(1)
			_, _, err := t.fold(r, a.ctx.Params, math.MaxInt)
			return err
		}, func() int {
			a.partials[m] = t.compact()
			return a.partials[m].n
		}
}

// mergePartials folds the per-morsel partials, in morsel order, into the
// first partial that holds each key, and returns the groups left, in the
// order they were first seen. Keys stay where they are and are found by their
// stored hashes. Grouping work was already charged per input row in the
// morsels; the merge itself is free on the clock, exactly like the serial
// hashAgg's in-table accumulation.
func (a *parallelAgg) mergePartials() []groupRef {
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

func (a *parallelAgg) Close() error {
	a.aggOutput = aggOutput{}
	return a.pipe.close()
}
