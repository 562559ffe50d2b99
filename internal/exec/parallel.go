package exec

import (
	"fmt"
	"runtime"
	"sync"
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

// finishNode records a fused child's observed cardinality the way the
// counted wrapper would have, so LEO feedback, EXPLAIN ANALYZE spans and
// the robustness metrics still see the node even though no standalone
// operator ran for it.
func finishNode(ctx *Context, n plan.Node, actual float64) {
	n.Props().SetActualRows(actual)
	if ctx.Trace != nil {
		if sp := ctx.Trace.SpanOf(n); sp != nil {
			sp.Finish(actual)
		}
	}
	if ctx.OnActual != nil {
		ctx.OnActual(n, actual)
	}
}

// compilePred compiles e when the context runs vectorized; a nil return
// keeps the interpreted path. Morsel operators call this at Open so the
// one-time compile is paid off across every morsel.
func compilePred(ctx *Context, e expr.Expr) *expr.Pred {
	if !ctx.Vec || e == nil {
		return nil
	}
	return expr.CompilePredicate(e)
}

// scanMorsel reads one morsel of a table, charging clk exactly as the
// serial scan would (one sequential read per page, CPU per examined row),
// and hands rows passing the filter to emit. pred, when non-nil, is the
// compiled form of node.Filter; rf, when non-nil, is the scan's bound
// runtime-filter consumer (rejects pay only the membership test, on the
// worker's shard clock). col, when non-nil, is the scan's columnar core: a
// morsel is then one column block, scanned through the shared block core
// with charges identical to the serial columnar scan's. The emitted row is
// the heap's (or a freshly materialized columnar row) — valid only until
// the query ends and never to be mutated.
func scanMorsel(ctx *Context, node *plan.ScanNode, pred *expr.Pred, rf *rfConsumer, col *colScanner, m, npages int, clk *storage.Clock, emit func(types.Row) error) error {
	if col != nil {
		return col.scanBlock(m, clk, emit)
	}
	lo, hi := morselRange(m, MorselPages, npages)
	return scanPageRange(ctx, node, pred, rf, lo, hi, clk, emit)
}

// scanPageRange scans the heap pages [lo, hi) of a table with the exact
// serial-scan charge discipline (one sequential read per page, runtime
// filters before per-row CPU). scanMorsel delegates here; the sharded
// co-located join path uses it directly with a partition's page range.
func scanPageRange(ctx *Context, node *plan.ScanNode, pred *expr.Pred, rf *rfConsumer, lo, hi int, clk *storage.Clock, emit func(types.Row) error) error {
	var emitErr error
	for p := lo; p < hi; p++ {
		node.Table.Heap.ScanPage(clk, p, func(_ storage.RID, r types.Row) bool {
			if rf != nil && !rf.admit(clk, r) {
				return true
			}
			clk.RowWork(1)
			if pred != nil {
				ok, err := pred.Eval(r, ctx.Params)
				if err != nil {
					emitErr = err
					return false
				}
				if !ok {
					return true
				}
			} else if node.Filter != nil {
				ok, err := expr.EvalPredicate(node.Filter, r, ctx.Params)
				if err != nil {
					emitErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			if err := emit(r); err != nil {
				emitErr = err
				return false
			}
			return true
		})
		if emitErr != nil {
			return emitErr
		}
	}
	return nil
}

// ---------- parallel scan ----------

// parallelScan splits a sequential scan into fixed page-range morsels
// dispatched to the worker pool and gathers matching rows through an
// exchange in morsel order — exactly the heap order the serial scan emits.
// Page and row charges are identical to seqScan's, issued on worker shard
// clocks and merged at the gather barrier.
type parallelScan struct {
	ctx  *Context
	node *plan.ScanNode
	x    exchange
}

func (s *parallelScan) Open() error {
	pred := compilePred(s.ctx, s.node.Filter)
	rf := bindRuntimeFilters(s.ctx, s.node.RFConsume)
	col := colScannerFor(s.ctx, s.node, rf)
	n, npages := scanGeometry(s.node, col)
	s.x.reset(n)
	return runMorsels(s.ctx, s.node.Label(), n, s.ctx.DOP, func(m int, clk *storage.Clock) (int, error) {
		rows := getMorselBuf()
		err := scanMorsel(s.ctx, s.node, pred, rf, col, m, npages, clk, func(r types.Row) error {
			rows = append(rows, r)
			return nil
		})
		if err != nil {
			putMorselBuf(rows)
			return 0, err
		}
		s.x.set(m, rows)
		return len(rows), nil
	})
}

func (s *parallelScan) Next() (types.Row, bool, error) {
	r, ok := s.x.next()
	return r, ok, nil
}

func (s *parallelScan) Close() error {
	s.x.release()
	return nil
}

// ---------- parallel hash join ----------

// probeScratch is one probe worker's reusable workspace: its prober (key
// scratch, output row) and the arena its retained output rows are copied
// into, so steady-state probing allocates nothing per row.
type probeScratch struct {
	*joinProbe
	arena RowArena
}

// parallelHashJoin is the morsel-driven hash join. The build side is
// drained once and hashed in parallel morsels straight into the one
// joinTable, which is linked at the gather barrier; probe-side morsels then
// stream against the frozen table lock-free, each worker through its own
// joinProbe. When the probe child is a parallel-marked scan, the scan fuses
// into the probe loop: one morsel performs page read, filter and probe with
// no intermediate materialization. Output flows through an exchange in
// morsel order, and the table chains rows in build order, so the emitted
// rows are byte-identical, in order, to the serial hashJoin's. The charge
// multiset also matches serial, so simulated cost is unchanged.
type parallelHashJoin struct {
	hashBuild
	scan  *plan.ScanNode // fused probe-side scan (nil when left is set)
	left  Operator       // probe child when not fused
	right Operator

	dop      int
	emitted  int64
	x        exchange
	scanPred *expr.Pred  // compiled fused-scan filter (vectorized runs)
	scanRF   *rfConsumer // fused scan's runtime filters, bound after the build
	scanCol  *colScanner // fused scan's columnar core (nil for heap scans)
	scratch  sync.Pool   // *probeScratch, reused across morsels
}

// openBuild drains the build side and erects the hash table. It is Open
// minus the probe phase, so an enclosing fused aggregation can drive the
// probe morsels itself.
func (j *parallelHashJoin) openBuild() error {
	j.dop = max(j.ctx.DOP, 1)
	if j.scan != nil {
		j.scanPred = compilePred(j.ctx, j.scan.Filter)
	}
	j.residual = compilePred(j.ctx, j.node.Residual)
	build, err := drain(j.right)
	if err != nil {
		return err
	}
	j.grant = j.ctx.Mem.Grant(len(build))
	if len(build) > j.grant {
		// Graceful degradation trades parallelism for robustness: the build
		// delegates to the serial spill machinery and the probe phase runs
		// inline on the context clock (probeSerialSpill) — correct results
		// and serial-identical charges under any budget, at DOP cost.
		// Runtime filters derive serially from the drained build first, so
		// the probe-side scans still shrink the spilled probe volume.
		buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, build)
		j.openSpill(build, 0)
	} else if err := j.buildTable(build); err != nil {
		return err
	}
	j.bindScanRF()
	return nil
}

// bindScanRF binds the fused probe scan's runtime filters once the build has
// published its own — including the filter this very join produced, which is
// the common consumer — and resolves the scan's columnar core so block-level
// pruning sees the bound filters.
func (j *parallelHashJoin) bindScanRF() {
	if j.scan != nil {
		j.scanRF = bindRuntimeFilters(j.ctx, j.scan.RFConsume)
		j.scanCol = colScannerFor(j.ctx, j.scan, j.scanRF)
	}
}

// probeSerialSpill is the memory-pressure probe phase: every probe row is
// handled serially on the context clock through the spill machinery — rows
// of resident partitions match immediately, the rest defer to probe runs —
// and the spilled partitions then replay. Every joined (and, for
// left-outer, null-extended) row goes to sink in serial-identical order
// with serial-identical charges; sink copies what it keeps.
func (j *parallelHashJoin) probeSerialSpill(sink func(types.Row) error) error {
	counted := func(r types.Row) error {
		atomic.AddInt64(&j.emitted, 1)
		return sink(r)
	}
	p := j.prober()
	if j.scan != nil {
		n, npages := scanGeometry(j.scan, j.scanCol)
		scanned := 0
		for m := 0; m < n; m++ {
			err := scanMorsel(j.ctx, j.scan, j.scanPred, j.scanRF, j.scanCol, m, npages, j.ctx.Clock, func(lr types.Row) error {
				scanned++
				return p.each(j.ctx.Clock, lr, counted)
			})
			if err != nil {
				return err
			}
		}
		finishNode(j.ctx, j.scan, float64(scanned))
	} else {
		lrows, err := drain(j.left)
		j.left = nil
		if err != nil {
			return err
		}
		for _, lr := range lrows {
			if err := p.each(j.ctx.Clock, lr, counted); err != nil {
				return err
			}
		}
	}
	return j.spill.finish(counted)
}

func (j *parallelHashJoin) Open() error {
	if err := j.openBuild(); err != nil {
		return err
	}
	return j.probe()
}

// buildTable hashes the build rows into the joinTable in parallel morsels,
// charging the serial join's insert cost — and, when the plan announced
// runtime filters, filling one partial Bloom per filter per morsel — then
// links the table at the gather barrier in build order, so probing stays
// deterministic. Partial Blooms are OR-merged in morsel order at the same
// barrier and published before any probe morsel can run.
func (j *parallelHashJoin) buildTable(build []types.Row) error {
	n := morselCount(len(build), MorselRows)
	tab := newJoinTable(build)
	nf := 0
	if j.ctx.RF != nil {
		nf = len(j.node.RFilters)
	}
	var rfParts [][]*RuntimeFilter
	if nf > 0 {
		rfParts = make([][]*RuntimeFilter, n)
	}
	err := runMorsels(j.ctx, j.node.Label()+" build", n, j.dop, func(m int, clk *storage.Clock) (int, error) {
		lo, hi := morselRange(m, MorselRows, len(build))
		if nf > 0 {
			// Partials are sized for the full build so the barrier merge is
			// a plain word-wise OR; the batch charge equals the serial
			// build's per-row charges over this morsel's rows.
			fs := make([]*RuntimeFilter, nf)
			for i, sp := range j.node.RFilters {
				fs[i] = newRuntimeFilter(sp.ID, len(build))
				col := j.node.RightKeys[sp.Col]
				for _, r := range build[lo:hi] {
					fs[i].add(r[col])
				}
			}
			clk.FilterTestsBatch((hi - lo) * nf)
			rfParts[m] = fs
		}
		return tab.hashRange(lo, hi, j.node.RightKeys, clk, 2), nil // insert costs double a probe (see cost model)
	})
	if err != nil {
		return err
	}
	for i, sp := range j.node.RFilters[:nf] {
		f := newRuntimeFilter(sp.ID, len(build))
		for _, fs := range rfParts {
			f.merge(fs[i])
		}
		j.ctx.RF.publish(f)
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("rf.build", fmt.Sprintf("filter=%d keys=%d bits=%d partials=%d", f.ID, len(build), len(f.words)*64, n))
		}
	}
	tab.link()
	j.tab = tab
	return nil
}

// getScratch hands out a pooled probeScratch; putScratch returns it when the
// morsel finishes, so scratch allocation amortizes across morsels instead of
// recurring per morsel. The arena travels with it: rows of successive
// morsels share chunks, which the rows themselves keep alive.
func (j *parallelHashJoin) getScratch() *probeScratch {
	if st, ok := j.scratch.Get().(*probeScratch); ok {
		return st
	}
	return &probeScratch{joinProbe: j.prober()}
}

func (j *parallelHashJoin) putScratch(st *probeScratch) { j.scratch.Put(st) }

// probe runs the probe phase into the exchange (the standalone operator
// path; a fused aggregation bypasses this entirely).
func (j *parallelHashJoin) probe() error {
	if j.spill != nil {
		out := getMorselBuf()
		var arena RowArena
		err := j.probeSerialSpill(func(r types.Row) error {
			out = append(out, arena.Copy(r))
			return nil
		})
		if err != nil {
			putMorselBuf(out)
			return err
		}
		j.x.reset(1)
		j.x.set(0, out)
		return nil
	}
	if j.scan != nil {
		n, npages := scanGeometry(j.scan, j.scanCol)
		j.x.reset(n)
		var scanned int64
		err := runMorsels(j.ctx, j.node.Label()+" probe", n, j.dop, func(m int, clk *storage.Clock) (int, error) {
			st := j.getScratch()
			defer j.putScratch(st)
			out := getMorselBuf()
			keep := func(r types.Row) error {
				out = append(out, st.arena.Copy(r))
				return nil
			}
			rows := 0
			err := scanMorsel(j.ctx, j.scan, j.scanPred, j.scanRF, j.scanCol, m, npages, clk, func(lr types.Row) error {
				rows++
				return st.each(clk, lr, keep)
			})
			if err != nil {
				putMorselBuf(out)
				return 0, err
			}
			atomic.AddInt64(&scanned, int64(rows))
			j.x.set(m, out)
			return len(out), nil
		})
		if err != nil {
			return err
		}
		finishNode(j.ctx, j.scan, float64(atomic.LoadInt64(&scanned)))
		return nil
	}
	lrows, err := drain(j.left)
	j.left = nil // drained and closed; Close must not close it again
	if err != nil {
		return err
	}
	n := morselCount(len(lrows), MorselRows)
	j.x.reset(n)
	return runMorsels(j.ctx, j.node.Label()+" probe", n, j.dop, func(m int, clk *storage.Clock) (int, error) {
		st := j.getScratch()
		defer j.putScratch(st)
		lo, hi := morselRange(m, MorselRows, len(lrows))
		out := getMorselBuf()
		keep := func(r types.Row) error {
			out = append(out, st.arena.Copy(r))
			return nil
		}
		for _, lr := range lrows[lo:hi] {
			if err := st.each(clk, lr, keep); err != nil {
				putMorselBuf(out)
				return 0, err
			}
		}
		j.x.set(m, out)
		return len(out), nil
	})
}

func (j *parallelHashJoin) Next() (types.Row, bool, error) {
	r, ok := j.x.next()
	return r, ok, nil
}

func (j *parallelHashJoin) Close() error {
	j.release()
	j.x.release()
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}

// ---------- parallel aggregation ----------

// aggPartial is one morsel's partial grouping state.
type aggPartial struct {
	groups map[uint64][]*group
	order  []*group
}

func newAggPartial() *aggPartial {
	return &aggPartial{groups: map[uint64][]*group{}}
}

// groupFor finds or creates the group for key, cloning the key only on
// creation (the caller's key buffer is reused across rows).
func (p *aggPartial) groupFor(key []types.Value, hash uint64, naggs int) *group {
	for _, cand := range p.groups[hash] {
		if rowsEqual(cand.key, key) {
			return cand
		}
	}
	g := &group{key: append([]types.Value(nil), key...), states: make([]aggState, naggs)}
	p.groups[hash] = append(p.groups[hash], g)
	p.order = append(p.order, g)
	return g
}

// parallelAgg runs hash aggregation as per-morsel partial group states
// merged at a gather barrier, then sorts the merged groups on the key —
// the same deterministic output order as the serial hashAgg. Partials
// merge in morsel order, so results are reproducible run to run; SUM/AVG
// over floats may differ from serial in the last bits because partial sums
// reassociate the additions (exact for integer data).
//
// The input pipeline fuses as deep as the plan allows: over a
// parallel-marked scan, one morsel performs page read, filter and
// accumulation; over a parallel-marked hash join, one morsel runs
// scan → probe → accumulate with a scratch output row and no
// materialization at all — the morsel pipeline only breaks at the gather
// barrier, where partials merge.
type parallelAgg struct {
	ctx   *Context
	node  *plan.AggNode
	scan  *plan.ScanNode    // fused input scan (exclusive with join/child)
	join  *parallelHashJoin // fused input join (exclusive with scan/child)
	child Operator          // generic input (exclusive with scan/join)

	groupFns []expr.EvalFn // compiled group expressions (vectorized runs)
	argFns   []expr.EvalFn // compiled aggregate arguments (vectorized runs)

	out []types.Row
	pos int
}

// compileFns lowers the group and aggregate-argument expressions once at
// Open when the context runs vectorized; interpreted otherwise.
func (a *parallelAgg) compileFns() {
	if !a.ctx.Vec {
		return
	}
	a.groupFns = expr.CompileAll(a.node.GroupExprs)
	a.argFns = make([]expr.EvalFn, len(a.node.Aggs))
	for i, spec := range a.node.Aggs {
		if !spec.Star {
			a.argFns[i] = expr.Compile(spec.Arg)
		}
	}
}

// accumRow folds one input row into a partial, charging the serial
// hashAgg's per-row probe. key is the caller's scratch group-key buffer.
func (a *parallelAgg) accumRow(p *aggPartial, r types.Row, key []types.Value, clk *storage.Clock) error {
	clk.Probes(1)
	if a.argFns != nil { // vectorized: compiled group and argument exprs
		for i, fn := range a.groupFns {
			v, err := fn(r, a.ctx.Params)
			if err != nil {
				return err
			}
			key[i] = v
		}
		g := p.groupFor(key, types.HashRow(key), len(a.node.Aggs))
		return accumGroupFns(g, a.node, a.argFns, r, a.ctx.Params)
	}
	for i, ge := range a.node.GroupExprs {
		v, err := ge.Eval(r, a.ctx.Params)
		if err != nil {
			return err
		}
		key[i] = v
	}
	g := p.groupFor(key, types.HashRow(key), len(a.node.Aggs))
	return accumGroup(g, a.node, r, a.ctx.Params)
}

func (a *parallelAgg) Open() error {
	a.compileFns()
	var (
		partials []*aggPartial
		err      error
	)
	switch {
	case a.scan != nil:
		partials, err = a.partialsFromScan()
	case a.join != nil:
		partials, err = a.partialsFromJoin()
	default:
		partials, err = a.partialsFromChild()
	}
	if err != nil {
		return err
	}
	order := a.mergePartials(partials)
	// Global aggregate with no groups and no input still yields one row.
	if len(order) == 0 && len(a.node.GroupExprs) == 0 {
		order = append(order, &group{states: make([]aggState, len(a.node.Aggs))})
	}
	a.out = groupRows(a.ctx.Clock, a.node, order)
	a.pos = 0
	return nil
}

func (a *parallelAgg) partialsFromScan() ([]*aggPartial, error) {
	pred := compilePred(a.ctx, a.scan.Filter)
	rf := bindRuntimeFilters(a.ctx, a.scan.RFConsume)
	col := colScannerFor(a.ctx, a.scan, rf)
	n, npages := scanGeometry(a.scan, col)
	partials := make([]*aggPartial, n)
	var scanned int64
	err := runMorsels(a.ctx, a.node.Label(), n, a.ctx.DOP, func(m int, clk *storage.Clock) (int, error) {
		p := newAggPartial()
		key := make([]types.Value, len(a.node.GroupExprs))
		rows := 0
		err := scanMorsel(a.ctx, a.scan, pred, rf, col, m, npages, clk, func(r types.Row) error {
			rows++
			return a.accumRow(p, r, key, clk)
		})
		if err != nil {
			return 0, err
		}
		atomic.AddInt64(&scanned, int64(rows))
		partials[m] = p
		return len(p.order), nil
	})
	if err != nil {
		return nil, err
	}
	finishNode(a.ctx, a.scan, float64(atomic.LoadInt64(&scanned)))
	return partials, nil
}

// partialsFromJoin is the fully fused pipeline: build the join's hash
// shards, then run probe morsels that accumulate joined rows straight into
// partials through a scratch row — no joined row is ever materialized.
func (a *parallelAgg) partialsFromJoin() ([]*aggPartial, error) {
	jn := a.join
	if err := jn.openBuild(); err != nil {
		return nil, err
	}
	if jn.spill != nil {
		// Build spilled: the fused pipeline degrades to a serial
		// probe-and-replay feeding one partial, keeping results and charges
		// serial-identical under pressure.
		p := newAggPartial()
		key := make([]types.Value, len(a.node.GroupExprs))
		err := jn.probeSerialSpill(func(r types.Row) error {
			return a.accumRow(p, r, key, a.ctx.Clock)
		})
		if err != nil {
			return nil, err
		}
		finishNode(a.ctx, jn.node, float64(atomic.LoadInt64(&jn.emitted)))
		jn.release()
		return []*aggPartial{p}, nil
	}
	accum := func(p *aggPartial, key []types.Value, clk *storage.Clock) func(types.Row) error {
		return func(r types.Row) error {
			atomic.AddInt64(&jn.emitted, 1)
			return a.accumRow(p, r, key, clk)
		}
	}
	var partials []*aggPartial
	if jn.scan != nil {
		n, npages := scanGeometry(jn.scan, jn.scanCol)
		partials = make([]*aggPartial, n)
		var scanned int64
		err := runMorsels(a.ctx, a.node.Label(), n, jn.dop, func(m int, clk *storage.Clock) (int, error) {
			st := jn.getScratch()
			defer jn.putScratch(st)
			p := newAggPartial()
			key := make([]types.Value, len(a.node.GroupExprs))
			sink := accum(p, key, clk)
			rows := 0
			err := scanMorsel(a.ctx, jn.scan, jn.scanPred, jn.scanRF, jn.scanCol, m, npages, clk, func(lr types.Row) error {
				rows++
				return st.each(clk, lr, sink)
			})
			if err != nil {
				return 0, err
			}
			atomic.AddInt64(&scanned, int64(rows))
			partials[m] = p
			return len(p.order), nil
		})
		if err != nil {
			return nil, err
		}
		finishNode(a.ctx, jn.scan, float64(atomic.LoadInt64(&scanned)))
	} else {
		lrows, err := drain(jn.left)
		jn.left = nil
		if err != nil {
			return nil, err
		}
		n := morselCount(len(lrows), MorselRows)
		partials = make([]*aggPartial, n)
		err = runMorsels(a.ctx, a.node.Label(), n, jn.dop, func(m int, clk *storage.Clock) (int, error) {
			st := jn.getScratch()
			defer jn.putScratch(st)
			p := newAggPartial()
			key := make([]types.Value, len(a.node.GroupExprs))
			sink := accum(p, key, clk)
			lo, hi := morselRange(m, MorselRows, len(lrows))
			for _, lr := range lrows[lo:hi] {
				if err := st.each(clk, lr, sink); err != nil {
					return 0, err
				}
			}
			partials[m] = p
			return len(p.order), nil
		})
		if err != nil {
			return nil, err
		}
	}
	finishNode(a.ctx, jn.node, float64(atomic.LoadInt64(&jn.emitted)))
	jn.release()
	return partials, nil
}

func (a *parallelAgg) partialsFromChild() ([]*aggPartial, error) {
	rows, err := drain(a.child)
	a.child = nil // drained and closed; Close must not close it again
	if err != nil {
		return nil, err
	}
	n := morselCount(len(rows), MorselRows)
	partials := make([]*aggPartial, n)
	err = runMorsels(a.ctx, a.node.Label(), n, a.ctx.DOP, func(m int, clk *storage.Clock) (int, error) {
		p := newAggPartial()
		key := make([]types.Value, len(a.node.GroupExprs))
		lo, hi := morselRange(m, MorselRows, len(rows))
		for _, r := range rows[lo:hi] {
			if err := a.accumRow(p, r, key, clk); err != nil {
				return 0, err
			}
		}
		partials[m] = p
		return len(p.order), nil
	})
	if err != nil {
		return nil, err
	}
	return partials, nil
}

// mergePartials folds the per-morsel partials, in morsel order, into one
// group list. Grouping work was already charged per input row in the
// morsels; the merge itself is free on the clock, exactly like the serial
// hashAgg's in-table accumulation.
func (a *parallelAgg) mergePartials(partials []*aggPartial) []*group {
	merged := map[uint64][]*group{}
	var order []*group
	for _, p := range partials {
		if p == nil {
			continue
		}
		for _, g := range p.order {
			h := types.HashRow(g.key)
			var dst *group
			for _, cand := range merged[h] {
				if rowsEqual(cand.key, g.key) {
					dst = cand
					break
				}
			}
			if dst == nil {
				merged[h] = append(merged[h], g)
				order = append(order, g)
				continue
			}
			for i := range dst.states {
				dst.states[i].merge(&g.states[i], a.node.Aggs[i])
			}
		}
	}
	return order
}

func (a *parallelAgg) Next() (types.Row, bool, error) {
	if a.pos >= len(a.out) {
		return nil, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

func (a *parallelAgg) Close() error {
	a.out = nil
	if a.child != nil {
		return a.child.Close()
	}
	return nil
}
