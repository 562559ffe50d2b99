package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// shardedHashJoin executes a hash join across ctx.Shards "nodes" — each
// with its own clock, hash-table shard and contiguous slice of the probe
// input — routed through a ShuffleExchange (shardtransport.go): in-process
// goroutines for transport=local, rqpserver -shard-worker processes over
// TCP for transport=tcp. The plan's ShuffleMode decides how rows move:
//
//   - Repartition: both sides route by join-key hash; per-shard row
//     counters detect heavy-hitter skew and split hot build keys across
//     shards with duplicated probe routing.
//   - Broadcast: the (small) build side replicates to every shard; probe
//     rows never move.
//   - Colocated: both sides are physically partitioned on the join key, so
//     every shard joins its own page ranges and nothing moves.
//
// Results are byte-identical to the serial join — output reassembles via a
// k-way merge on (probe sequence, build index), where the coordinator cuts
// each row down to the node's Cols (shards join and ship left‖right, so the
// exchange protocol knows no projection) — and the main-clock charge
// multiset is exactly the serial one, so total simulated cost is
// integer-exact at any shard count. Under memory pressure the whole join
// degrades to the serial spill path (charges still serial-identical).
type shardedHashJoin struct {
	ctx       *Context
	node      *plan.JoinNode
	scan      *plan.ScanNode // fused probe-side scan (nil when left is set)
	left      Operator       // probe child when not fused
	right     Operator       // build child (nil when buildScan is set)
	buildScan *plan.ScanNode // co-located build-side scan

	n        int
	mode     plan.ShuffleMode
	grant    int
	rWidth   int
	scanRF   *rfConsumer
	scanCol  *colScanner
	fallback *parallelGather // degraded path under memory pressure
	out      []types.Row
	pos      int
}

func (j *shardedHashJoin) Open() error {
	j.n = j.ctx.Shards
	if j.n < 1 {
		j.n = 1
	}
	j.mode = j.node.Shuffle
	j.rWidth = len(j.node.Kids[1].Schema())
	if j.mode == plan.ShuffleColocated && !j.colocatedValid() {
		// The partitioned layout vanished between planning and execution
		// (DML drops it); repartitioning is always correct.
		j.mode = plan.ShuffleRepartition
	}
	if j.mode == plan.ShuffleColocated {
		return j.runColocated()
	}
	build, err := j.drainBuild()
	if err != nil {
		return err
	}
	// Serial-identical runtime-filter derivation and memory negotiation:
	// drain, publish filters, then one grant — the exact serial sequence,
	// so scheduled-budget runs negotiate at the same steps.
	buildRuntimeFilters(j.ctx, j.node, j.ctx.Clock, len(build), func(i, c int) types.Value { return build[i][c] })
	j.grant = j.ctx.Mem.Grant(len(build))
	if len(build) > j.grant {
		return j.degrade(build)
	}
	j.bindScan()
	j.ctx.Shuffle.countJoin(j.mode)
	return j.runShuffled(build)
}

// colocatedValid re-checks at Open what PlanShuffles established at plan
// time: both scans' tables still carry matching physical partitionings.
func (j *shardedHashJoin) colocatedValid() bool {
	if j.scan == nil || j.buildScan == nil || len(j.node.LeftKeys) != 1 {
		return false
	}
	lp, rp := j.scan.Table.Part(), j.buildScan.Table.Part()
	return lp != nil && rp != nil &&
		lp.Shards == j.n && rp.Shards == j.n &&
		lp.Col == plan.TableCol(j.scan.Cols, j.node.LeftKeys[0]) &&
		rp.Col == plan.TableCol(j.buildScan.Cols, j.node.RightKeys[0])
}

// scanBuild keeps the build scan's rows of heap pages [lo, hi), charging
// clk: the scan lends them, so each is copied once.
func (j *shardedHashJoin) scanBuild(rf *rfConsumer, lo, hi int, clk *storage.Clock) ([]types.Row, error) {
	var scratch types.Row
	var kept RowSet
	err := scanPageRange(j.ctx, j.buildScan, rf, lo, hi, clk, &scratch, kept.add)
	return kept.Rows(), err
}

// drainBuild materializes the build side in serial order with serial
// charges: through the child operator, or — when a planned co-located join
// degraded at run time and has no build operator — by scanning the build
// table with seqScan-identical charges.
func (j *shardedHashJoin) drainBuild() ([]types.Row, error) {
	if j.right != nil {
		return drain(j.right)
	}
	rf := bindRuntimeFilters(j.ctx, j.buildScan.RFConsume, j.buildScan.Cols)
	rows, err := j.scanBuild(rf, 0, j.buildScan.Table.Heap.NumPages(), j.ctx.Clock)
	if err != nil {
		return nil, err
	}
	finishNode(j.ctx, j.buildScan, float64(len(rows)), j.node)
	return rows, nil
}

// bindScan binds the fused probe scan's runtime filters (after the build
// published its own) and resolves its columnar core.
func (j *shardedHashJoin) bindScan() {
	if j.scan != nil {
		j.scanRF = bindRuntimeFilters(j.ctx, j.scan.RFConsume, j.scan.Cols)
		j.scanCol = colScannerFor(j.ctx, j.scan, j.scanRF)
	}
}

// degrade routes the whole join through the serial spill machinery when
// the build exceeded its grant: sharding a workspace that does not fit
// would multiply pressure, so the robust move is to give the shuffle up
// for this join and degrade exactly like the unsharded engine does.
func (j *shardedHashJoin) degrade(build []types.Row) error {
	j.ctx.Shuffle.degraded()
	if j.ctx.Trace != nil {
		j.ctx.Trace.Event("shuffle.degrade", fmt.Sprintf(
			"build=%d grant=%d: shuffle bypassed for serial spill path", len(build), j.grant))
	}
	fb := &parallelHashJoin{
		hashBuild: hashBuild{ctx: j.ctx, node: j.node, grant: j.grant},
		held:      true,
	}
	fb.openSpill(&packRows(build).rows, 0)
	// The grant and the probe child now belong to the fallback's pipeline.
	j.fallback = &parallelGather{pipe: &pipeline{
		ctx: j.ctx, root: j.node, src: morselSource{scan: j.scan}, child: j.left, stages: []*parallelHashJoin{fb},
	}}
	j.grant, j.left = 0, nil
	return j.fallback.Open()
}

// spec assembles the ShuffleJoinSpec a transport needs to build and probe
// this join's hash-table shards remotely.
func (j *shardedHashJoin) spec(clks []*storage.Clock) ShuffleJoinSpec {
	return ShuffleJoinSpec{
		Shards:    j.n,
		LeftKeys:  j.node.LeftKeys,
		RightKeys: j.node.RightKeys,
		LeftOuter: j.node.Type == plan.LeftOuter,
		RWidth:    j.rWidth,
		Residual:  j.residualFn(),
		Model:     j.ctx.Clock.Model(),
		Clocks:    clks,
		Stats:     j.ctx.Shuffle,
		Canceled:  j.ctx.Canceled,
	}
}

// residualFn wraps the join's residual predicate as the closure
// ShardJoiner evaluates per candidate match.
func (j *shardedHashJoin) residualFn() func(types.Row) (bool, error) {
	if j.node.Residual == nil {
		return nil
	}
	e, params := j.node.Residual, j.ctx.Params
	return func(r types.Row) (bool, error) { return expr.EvalPredicate(e, r, params) }
}

// openExchange asks the context's transport for this join's exchange,
// falling back to the in-process exchange when the transport refuses the
// join shape or cannot reach its peers. Fallback is only safe here, before
// any row has been routed; mid-exchange failures abort the query instead.
func (j *shardedHashJoin) openExchange(spec ShuffleJoinSpec) ShuffleExchange {
	tr := j.ctx.ShufTransport
	if tr == nil {
		return newLocalExchange(spec)
	}
	ex, err := tr.OpenExchange(spec)
	if err != nil {
		j.ctx.Shuffle.netFallback()
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("shuffle.fallback", fmt.Sprintf(
				"transport=%s refused exchange: %v (running local)", tr.Name(), err))
		}
		j.ctx.Shuffle.SetTransport("local")
		return newLocalExchange(spec)
	}
	j.ctx.Shuffle.SetTransport(tr.Name())
	return ex
}

// runShuffled is the repartition/broadcast path: route the build side
// through the exchange, detect and split hot keys, then scan-and-route the
// probe side from per-shard contiguous ranges, probe shard-locally
// (wherever the shard lives), and k-way merge the tagged outputs back into
// serial order.
func (j *shardedHashJoin) runShuffled(build []types.Row) error {
	ctx := j.ctx
	st := ctx.Shuffle
	n := j.n
	model := ctx.Clock.Model()

	// Join-key hashes for the whole build side, computed once.
	hs := make([]uint64, len(build))
	nulls := make([]bool, len(build))
	key := make([]types.Value, len(j.node.RightKeys))
	routed := 0
	for i, r := range build {
		keyInto(key, r, j.node.RightKeys)
		if keyHasNull(key) {
			nulls[i] = true
			continue
		}
		hs[i] = types.HashRow(key)
		routed++
	}

	hot := j.detectHotKeys(hs, nulls, routed)

	clks := make([]*storage.Clock, n)
	for s := range clks {
		clks[s] = ctx.Clock.Shard()
	}
	ex := j.openExchange(j.spec(clks))
	defer ex.Abort()

	// Route the build side. Hot keys round-robin their rows across all
	// shards by arrival index; everything else goes to hash%n. The copy
	// that pays the serial insert charge is marked Own.
	rr := make(map[uint64]int, len(hot))
	for i, r := range build {
		if nulls[i] {
			ctx.Clock.Probes(2) // serial charges the insert before skipping null keys
			continue
		}
		h := hs[i]
		if j.mode == plan.ShuffleBroadcast {
			own := int(h % uint64(n))
			for d := 0; d < n; d++ {
				if err := ex.SendBuild(d, ShufBuild{Idx: int32(i), Own: d == own, Hash: h, Row: r}); err != nil {
					return err
				}
				if d != own {
					st.addExtra(d, 1, model.NetRow)
					st.addExtra(d, 2, model.HashProbe)
				}
			}
			st.broadcastRows(int64(n - 1))
			continue
		}
		d := int(h % uint64(n))
		if hot[h] {
			d = rr[h] % n
			rr[h]++
		}
		if err := ex.SendBuild(d, ShufBuild{Idx: int32(i), Own: true, Hash: h, Row: r}); err != nil {
			return err
		}
		if n > 1 {
			st.movedRows(1)
			st.addExtra(d, 1, model.NetRow)
		}
	}
	if err := ex.FlushBuild(); err != nil {
		return err
	}

	// Scan-and-route the probe side. Each shard owns a contiguous morsel
	// (or row) range, so its sequence tags ascend; each (src,dst) stream is
	// therefore already sorted and the receiver just sweeps sources in
	// order.
	route := func(src int, seq int64, lr types.Row, pk []types.Value) error {
		if j.mode == plan.ShuffleBroadcast {
			return ex.SendProbe(src, src, ShufProbe{Seq: seq, Main: true, Row: lr})
		}
		h := types.HashRow(pk) // NULL keys hash deterministically too
		d := int(h % uint64(n))
		if hot[h] {
			// Duplicated probe routing: the build rows of this key are
			// spread over every shard, so the probe row visits all of them.
			// Only the home copy pays the serial probe charge.
			for dd := 0; dd < n; dd++ {
				if err := ex.SendProbe(src, dd, ShufProbe{Seq: seq, Main: dd == d, Row: lr}); err != nil {
					return err
				}
				if dd != d {
					st.hotDup(1)
					st.addExtra(dd, 1, model.NetRow)
					st.addExtra(dd, 1, model.HashProbe)
				}
			}
			if d != src {
				st.movedRows(1)
				st.addExtra(d, 1, model.NetRow)
			}
			return nil
		}
		if err := ex.SendProbe(src, d, ShufProbe{Seq: seq, Main: true, Row: lr}); err != nil {
			return err
		}
		if d != src {
			st.movedRows(1)
			st.addExtra(d, 1, model.NetRow)
		}
		return nil
	}
	if j.scan != nil {
		nm, npages := scanGeometry(j.scan, j.scanCol)
		var scanned int64
		if err := runShards(n, func(s int) error {
			lo, hi := shardRange(s, n, nm)
			pk := make([]types.Value, len(j.node.LeftKeys))
			var scratch scanScratch
			defer scratch.release()
			var arena RowArena
			var cnt int64
			for m := lo; m < hi; m++ {
				mseq := int64(m) << shardSeqShift
				k := int64(0)
				err := scanMorsel(ctx, j.scan, j.scanRF, j.scanCol, m, npages, clks[s], &scratch, func(lr types.Row) error {
					lr = arena.Copy(lr) // the exchange keeps it; the scan only lends it
					keyInto(pk, lr, j.node.LeftKeys)
					if err := route(s, mseq|k, lr, pk); err != nil {
						return err
					}
					k++
					cnt++
					return nil
				})
				if err != nil {
					return err
				}
			}
			atomic.AddInt64(&scanned, cnt)
			return ex.FlushProbe(s)
		}); err != nil {
			return err
		}
		finishNode(ctx, j.scan, float64(atomic.LoadInt64(&scanned)), j.node)
	} else {
		lrows, err := drain(j.left)
		j.left = nil
		if err != nil {
			return err
		}
		if err := runShards(n, func(s int) error {
			lo, hi := shardRange(s, n, len(lrows))
			pk := make([]types.Value, len(j.node.LeftKeys))
			for i, lr := range lrows[lo:hi] {
				keyInto(pk, lr, j.node.LeftKeys)
				if err := route(s, int64(lo+i), lr, pk); err != nil {
					return err
				}
			}
			return ex.FlushProbe(s)
		}); err != nil {
			return err
		}
	}

	// Build and probe run at the shards (in-process goroutines or worker
	// processes); Collect gathers every shard's (Seq, BIdx)-sorted stream
	// plus any clock work performed away from the coordinator.
	outs, units, err := ex.Collect()
	if err != nil {
		return err
	}

	j.gather(outs)
	j.finishShards(clks, units)
	if ctx.Trace != nil {
		ctx.Trace.Event("shuffle.route", fmt.Sprintf(
			"mode=%s shards=%d build=%d hot_keys=%d out=%d", j.mode, n, len(build), len(hot), len(j.out)))
	}
	return nil
}

// detectHotKeys implements the skew trigger for repartition joins: when a
// shard's routed load share (squared build-key counts, the match-work
// proxy) exceeds shardSkewFactor times the mean, every key on it whose own
// weight reaches the mean shard load is marked hot. Left-outer joins are
// excluded — their null-extension decision needs all of a probe row's
// matches on one shard.
func (j *shardedHashJoin) detectHotKeys(hs []uint64, nulls []bool, routed int) map[uint64]bool {
	if j.mode != plan.ShuffleRepartition || j.node.Type != plan.Inner ||
		j.ctx.NoHotSplit || j.n <= 1 || routed == 0 {
		return nil
	}
	n := j.n
	// Per-key build counts feed a squared-count load proxy: when both
	// sides skew together, the match work a key drags to its shard grows
	// quadratically with its build share, so plain row counts understate
	// heavy hitters. The per-shard weight is the sum of its keys' squared
	// counts.
	per := make(map[uint64]int, routed)
	for i := range hs {
		if !nulls[i] {
			per[hs[i]]++
		}
	}
	w := make([]float64, n)
	var total float64
	for h, c := range per {
		q := float64(c) * float64(c)
		w[int(h%uint64(n))] += q
		total += q
	}
	mean := total / float64(n)
	overloaded := make(map[int]bool)
	for s := range w {
		if w[s] > shardSkewFactor*mean {
			overloaded[s] = true
		}
	}
	if len(overloaded) == 0 {
		return nil
	}
	// A key is hot when its own squared weight reaches the mean shard
	// weight — splitting anything smaller cannot level the load.
	var hot map[uint64]bool
	for h, c := range per {
		if overloaded[int(h%uint64(n))] && float64(c)*float64(c) > mean {
			if hot == nil {
				hot = map[uint64]bool{}
			}
			hot[h] = true
		}
	}
	if hot != nil {
		j.ctx.Shuffle.hotSplit(int64(len(hot)))
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("shuffle.skew", fmt.Sprintf(
				"hot_keys=%d overloaded_shards=%d mean_load=%.1f", len(hot), len(overloaded), mean))
		}
	}
	return hot
}

// gather k-way merges the per-shard output streams — each already sorted
// by (Seq, BIdx) — into the exact serial emission order.
func (j *shardedHashJoin) gather(outs [][]ShufOut) {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	j.out = make([]types.Row, 0, total)
	cur := make([]int, len(outs))
	for len(j.out) < total {
		best := -1
		for s := range outs {
			if cur[s] >= len(outs[s]) {
				continue
			}
			if best < 0 {
				best = s
				continue
			}
			a, b := outs[s][cur[s]], outs[best][cur[best]]
			if a.Seq < b.Seq || (a.Seq == b.Seq && a.BIdx < b.BIdx) {
				best = s
			}
		}
		// The gathered row is ours: cut it down to the node's Cols in place
		// (they ascend, so no value is overwritten before it has been moved).
		r := outs[best][cur[best]].Row
		j.out = append(j.out, appendCols(r[:0], r, j.node.Cols))
		cur[best]++
	}
}

// finishShards attributes each shard's units to the stats and merges them
// into the query clock — restoring the exact serial total. A shard's total
// is its coordinator-side clock (probe scanning, local build/probe) plus
// whatever the exchange reports it performed elsewhere (a worker process's
// shipped clock, folded in via MergeScaled in the same integer domain).
func (j *shardedHashJoin) finishShards(clks []*storage.Clock, units []ShardUnits) {
	st := j.ctx.Shuffle
	for s, clk := range clks {
		total := clk.UnitsScaled()
		if units != nil {
			u := units[s]
			total += u.UnitsScaled
			j.ctx.Clock.MergeScaled(u.UnitsScaled, u.SeqReads, u.RandReads, u.PageWrites, u.RowsCPU)
		}
		st.addUnits(s, total)
		j.ctx.Clock.Merge(clk)
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("shuffle.shard", fmt.Sprintf(
				"shard=%d units=%.3f", s, float64(total)/storage.ClockScale))
		}
	}
}

// runColocated is the no-movement path: both tables are physically
// partitioned on the join key with page-aligned shard boundaries, so shard
// s joins build pages [bp[s],bp[s+1]) against probe pages [pp[s],pp[s+1])
// entirely locally. Shard-major concatenation of outputs is the serial
// heap order, so no tags or merge are needed.
func (j *shardedHashJoin) runColocated() error {
	ctx := j.ctx
	n := j.n
	bp := j.buildScan.Table.Part().PageStart
	pp := j.scan.Table.Part().PageStart
	clks := make([]*storage.Clock, n)
	for s := range clks {
		clks[s] = ctx.Clock.Shard()
	}

	// Per-shard build-side scans; shard-major order is heap order, so the
	// concatenation equals the serial drain.
	brf := bindRuntimeFilters(ctx, j.buildScan.RFConsume, j.buildScan.Cols)
	bRows := make([][]types.Row, n)
	if err := runShards(n, func(s int) error {
		var err error
		bRows[s], err = j.scanBuild(brf, bp[s], bp[s+1], clks[s])
		return err
	}); err != nil {
		return err
	}
	totalBuild := 0
	for _, rows := range bRows {
		totalBuild += len(rows)
	}
	finishNode(ctx, j.buildScan, float64(totalBuild), j.node)
	if ctx.RF != nil && len(j.node.RFilters) > 0 {
		all := slices.Concat(bRows...)
		buildRuntimeFilters(ctx, j.node, ctx.Clock, len(all), func(i, c int) types.Value { return all[i][c] })
	}
	j.grant = ctx.Mem.Grant(totalBuild)
	if totalBuild > j.grant {
		for s, clk := range clks {
			ctx.Shuffle.addUnits(s, clk.UnitsScaled())
			ctx.Clock.Merge(clk)
		}
		return j.degrade(slices.Concat(bRows...))
	}
	j.bindScan()
	j.ctx.Shuffle.countJoin(plan.ShuffleColocated)

	outs := make([][]types.Row, n)
	spec := j.spec(clks)
	var scanned int64
	if err := runShards(n, func(s int) error {
		// Colocated shards never touch a transport: each builds and probes
		// its own page ranges through the same ShardJoiner engine remote
		// workers run, so charges match the shuffled paths call-for-call.
		w := NewShardJoiner(spec, clks[s])
		key := make([]types.Value, len(j.node.RightKeys))
		for i, r := range bRows[s] {
			keyInto(key, r, j.node.RightKeys)
			if keyHasNull(key) {
				clks[s].Probes(2) // serial charges the insert before skipping null keys
				continue
			}
			w.Insert(ShufBuild{Idx: int32(i), Own: true, Hash: types.HashRow(key), Row: r})
		}
		var tagged []ShufOut
		var scratch types.Row
		var cnt int64
		err := scanPageRange(ctx, j.scan, j.scanRF, pp[s], pp[s+1], clks[s], &scratch, func(lr types.Row) error {
			cnt++
			return w.Probe(ShufProbe{Seq: cnt, Main: true, Row: lr}, &tagged)
		})
		if err != nil {
			return err
		}
		atomic.AddInt64(&scanned, cnt)
		rows := make([]types.Row, len(tagged))
		for i, o := range tagged {
			rows[i] = appendCols(o.Row[:0], o.Row, j.node.Cols) // in place, as gather does
		}
		outs[s] = rows
		return nil
	}); err != nil {
		return err
	}
	finishNode(ctx, j.scan, float64(atomic.LoadInt64(&scanned)), j.node)
	for _, rows := range outs {
		j.out = append(j.out, rows...)
	}
	j.finishShards(clks, nil)
	if ctx.Trace != nil {
		ctx.Trace.Event("shuffle.route", fmt.Sprintf(
			"mode=colocated shards=%d build=%d out=%d (no rows moved)", n, totalBuild, len(j.out)))
	}
	return nil
}

func (j *shardedHashJoin) Next() (types.Row, bool, error) {
	if j.fallback != nil {
		return j.fallback.Next()
	}
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	r := j.out[j.pos]
	j.pos++
	return r, true, nil
}

func (j *shardedHashJoin) Close() error {
	if j.fallback != nil {
		return j.fallback.Close()
	}
	j.out = nil
	j.ctx.Mem.Release(j.grant)
	j.grant = 0
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}
