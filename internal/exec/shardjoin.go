package exec

import (
	"fmt"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// shardedHashJoin executes a hash join across ctx.Shards "nodes" — each
// with its own clock, hash-table shard and share of the probe input —
// routed through a ShuffleExchange (shardtransport.go): in-process
// goroutines for transport=local, rqpserver -shard-worker processes over
// TCP for transport=tcp. The plan's ShuffleMode decides where rows go:
//
//   - Repartition: both sides route by join-key hash; per-shard row
//     counters detect heavy-hitter skew and split hot build keys across
//     shards with duplicated probe routing.
//   - Broadcast: the (small) build side replicates to every shard; probe
//     rows never move.
//   - Colocated: both tables are partitioned on the join key by the hash
//     the router uses, so each shard scans its own partitions and every row
//     routes to the shard it was read on. Nothing moves, and the exchange
//     is always the in-process one.
//
// One Open runs all three: collect the build side into the join's
// joinStage and settle it as every hash build is settled (runtime filters,
// one grant, a spill over the grant); spilled, run as a gather over the
// stage, exactly as the unsharded engine degrades; otherwise route the build
// rows, then the probe rows from one per-shard loop, and merge. A row counts
// as moved when its destination is not the shard it is on; a build row
// drained at the coordinator is on none.
//
// Results are byte-identical to the serial join — output reassembles via a
// k-way merge on (probe sequence, build index), where the coordinator cuts
// each row down to the node's Cols (shards join and ship left‖right, so the
// exchange protocol knows no projection) — and the main-clock charge
// multiset is exactly the serial one, so total simulated cost is
// integer-exact at any shard count.
type shardedHashJoin struct {
	ctx       *Context
	node      *plan.JoinNode
	n         int
	mode      plan.ShuffleMode
	stage     joinStage      // the build side, its grant and, over the grant, its spill
	buildScan *plan.ScanNode // co-located: the build side, scanned partition by partition
	src       morselSource   // the probe side: a fused scan, or the rows of ...
	left      Operator       // ... the probe child, drained a morsel a row
	clks      []*storage.Clock
	cut       []int   // shard s probes morsels [cut[s], cut[s+1]): contiguous, so its tags ascend
	fallback  *gather // the spilled stage's pipeline
	out       []types.Row
	pos       int
}

// newShardedHashJoin builds a sharded join's inputs. A plan marked
// co-located stays so only while both scans' tables carry the partitionings
// it was planned on — checked here, where the operator tree is made and the
// layout cannot change before Open; otherwise (DML drops a layout) it
// repartitions, which is always correct, with a build side like any other.
func newShardedHashJoin(ctx *Context, node *plan.JoinNode) (*shardedHashJoin, error) {
	j := &shardedHashJoin{ctx: ctx, node: node, n: ctx.Shards, mode: node.Shuffle}
	j.stage.ctx, j.stage.node = ctx, node
	ls, lok := node.Kids[0].(*plan.ScanNode)
	if j.mode == plan.ShuffleColocated {
		if rs, ok := node.Kids[1].(*plan.ScanNode); ok && lok && colocatedValid(node, ls, rs, j.n) {
			j.src.scan, j.buildScan = ls, rs
			return j, nil
		}
		j.mode = plan.ShuffleRepartition
	}
	if err := j.stage.side(node.Kids[1]); err != nil {
		return nil, err
	}
	if lok {
		j.src.scan = ls // fused into the shards' probe loops
		return j, nil
	}
	var err error
	j.left, err = build(node.Kids[0], ctx)
	return j, err
}

// colocatedValid reports whether both scans' tables carry n-way
// partitionings on the join key — a key ordinal mapped through the scan's
// Cols to the table column the layout names.
func colocatedValid(node *plan.JoinNode, probe, build *plan.ScanNode, n int) bool {
	if len(node.LeftKeys) != 1 {
		return false
	}
	lp, rp := probe.Table.Part(), build.Table.Part()
	return lp != nil && rp != nil && lp.Shards == n && rp.Shards == n &&
		lp.Col == plan.TableCol(probe.Cols, node.LeftKeys[0]) &&
		rp.Col == plan.TableCol(build.Cols, node.RightKeys[0])
}

func (j *shardedHashJoin) Open() error {
	ctx := j.ctx
	j.clks = make([]*storage.Clock, j.n)
	for s := range j.clks {
		j.clks[s] = ctx.Clock.Shard()
	}
	build, from, err := j.collectBuild()
	if err != nil {
		return err
	}
	if j.stage.settle(build) {
		return j.degrade(build.rows.n)
	}
	ctx.Shuffle.countJoin(j.mode)
	return j.route(build, from)
}

// collectBuild packs the build side in heap order: drained by the stage at
// the coordinator or, co-located, read partition by partition on each
// shard's clock — rows from[s] <= i < from[s+1] on shard s.
func (j *shardedHashJoin) collectBuild() (*joinTable, []int, error) {
	if j.buildScan == nil {
		tab, err := j.stage.drainBuild()
		return tab, nil, err
	}
	tab, from := &joinTable{}, make([]int, j.n+1)
	rf := bindRuntimeFilters(j.ctx, j.buildScan.RFConsume, j.buildScan.Cols)
	pages := j.buildScan.Table.Part().PageStart
	var scratch types.Row
	for s, clk := range j.clks {
		if err := scanPageRange(j.ctx, j.buildScan, rf, pages[s], pages[s+1], clk, &scratch, tab.rows.add); err != nil {
			return nil, nil, err
		}
		from[s+1] = tab.rows.n
	}
	finishNode(j.ctx, j.buildScan, float64(tab.rows.n), j.node, 0)
	return tab, from, nil
}

// degrade runs the join unsharded once its build of n rows has spilled over
// its grant: sharding a workspace that does not fit would multiply pressure,
// so the join is a pipeline of its one spilled stage, which one worker drains
// — the unsharded engine's degrade path. The grant and the probe child now
// belong to that pipeline.
func (j *shardedHashJoin) degrade(n int) error {
	ctx := j.ctx
	ctx.Shuffle.degraded()
	if ctx.Trace != nil {
		ctx.Trace.Event("shuffle.degrade", fmt.Sprintf(
			"build=%d grant=%d: shuffle bypassed for serial spill path", n, j.stage.grant))
	}
	for s, clk := range j.clks { // a co-located build's scans
		ctx.Shuffle.addUnits(s, clk.UnitsScaled())
		ctx.Clock.Merge(clk)
	}
	g := &gather{}
	g.ctx, g.root, g.stages = ctx, j.node, []*joinStage{&j.stage}
	g.src.scan, g.src.op = j.src.scan, j.left
	j.fallback, j.left = g, nil
	return g.Open()
}

// spec assembles the ShuffleJoinSpec a transport needs to build and probe
// this join's hash-table shards, residual included.
func (j *shardedHashJoin) spec() ShuffleJoinSpec {
	return ShuffleJoinSpec{
		Shards:    j.n,
		LeftKeys:  j.node.LeftKeys,
		RightKeys: j.node.RightKeys,
		LeftOuter: j.node.Type == plan.LeftOuter,
		RWidth:    len(j.node.Kids[1].Schema()),
		Residual:  j.node.Residual,
		Params:    j.ctx.Params,
		Model:     j.ctx.Clock.Model(),
		Clocks:    j.clks,
		Stats:     j.ctx.Shuffle,
		Canceled:  j.ctx.Canceled,
	}
}

// openExchange asks the context's transport for this join's exchange. A
// co-located join, whose rows never move, and a nil transport use the
// in-process exchange; so does a join the transport refuses or whose peers
// it cannot reach. Fallback is only safe here, before any row has been
// routed; mid-exchange failures abort the query instead.
func (j *shardedHashJoin) openExchange() ShuffleExchange {
	tr, spec := j.ctx.ShufTransport, j.spec()
	if tr == nil || j.mode == plan.ShuffleColocated {
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

// route runs the join through the exchange: route the build side, detecting
// and splitting hot keys, then the probe side from each shard's morsels;
// shards build and probe locally (wherever they live), and the tagged
// outputs merge back into serial order.
func (j *shardedHashJoin) route(build *joinTable, from []int) error {
	ctx := j.ctx
	st := ctx.Shuffle
	n := j.n
	model := ctx.Clock.Model()

	// Join-key hashes for the whole build side, computed once.
	rows := &build.rows
	hs := make([]uint64, rows.n)
	nulls := make([]bool, rows.n)
	key := make([]types.Value, len(j.node.RightKeys))
	keyed := 0
	for i := range hs {
		if rows.keyInto(key, i, j.node.RightKeys); keyHasNull(key) {
			nulls[i] = true
			continue
		}
		hs[i] = types.HashRow(key)
		keyed++
	}

	hot := j.detectHotKeys(hs, nulls, keyed)
	ex := j.openExchange()
	defer ex.Abort()

	// Route the build side. Hot keys round-robin their rows across all
	// shards by arrival index; everything else goes to hash%n. The copy
	// that pays the serial insert charge is marked Own.
	rr := make(map[uint64]int, len(hot))
	var routed RowArena // the build rows, which the exchange keeps
	at := -1            // the shard build row i was read on
	for i, h := range hs {
		for from != nil && i >= from[at+1] {
			at++
		}
		if nulls[i] {
			clk := ctx.Clock
			if at >= 0 {
				clk = j.clks[at]
			}
			clk.Probes(2) // serial charges the insert before skipping null keys
			continue
		}
		r := routed.Alloc(rows.w)
		rows.row(i, &r)
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
		if d != at {
			st.movedRows(1)
			st.addExtra(d, 1, model.NetRow)
		}
	}
	if err := ex.FlushBuild(); err != nil {
		return err
	}

	routeProbe := func(src int, seq int64, lr types.Row, pk []types.Value) error {
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
		} else if err := ex.SendProbe(src, d, ShufProbe{Seq: seq, Main: true, Row: lr}); err != nil {
			return err
		}
		if d != src {
			st.movedRows(1)
			st.addExtra(d, 1, model.NetRow)
		}
		return nil
	}

	// Route the probe side: each shard its own morsels, tagged (morsel,
	// row within it), so each (src, dst) stream is already sorted and the
	// receiver just sweeps sources in order.
	if err := j.bindProbe(); err != nil {
		return err
	}
	src := &j.src
	if err := runShards(n, func(s int) error {
		pk := make([]types.Value, len(j.node.LeftKeys))
		send := func(seq int64, lr types.Row) error {
			keyInto(pk, lr, j.node.LeftKeys)
			return routeProbe(s, seq, lr, pk)
		}
		scratch := getScratch()
		defer scratch.release()
		var arena RowArena
		for m := j.cut[s]; m < j.cut[s+1]; m++ {
			seq := int64(m) << shardSeqShift
			if src.scan == nil {
				if err := send(seq, src.rows[m]); err != nil {
					return err
				}
				continue
			}
			k := int64(0)
			err := src.scanMorsel(ctx, m, j.clks[s], scratch, func(lr types.Row) error {
				k++
				return send(seq+k-1, arena.Copy(lr)) // the exchange keeps it; the scan only lends it
			})
			src.scanned.Add(k)
			if err != nil {
				return err
			}
		}
		return ex.FlushProbe(s)
	}); err != nil {
		return err
	}
	if src.scan != nil {
		finishNode(ctx, src.scan, float64(src.scanned.Load()), j.node, 0)
	}

	// Build and probe run at the shards (in-process goroutines or worker
	// processes); Collect gathers every shard's (Seq, BIdx)-sorted stream
	// plus any clock work performed away from the coordinator.
	outs, units, err := ex.Collect()
	if err != nil {
		return err
	}
	j.merge(outs)
	j.finishShards(units)
	if ctx.Trace != nil {
		ctx.Trace.Event("shuffle.route", fmt.Sprintf(
			"mode=%s shards=%d build=%d hot_keys=%d out=%d", j.mode, n, rows.n, len(hot), len(j.out)))
	}
	return nil
}

// bindProbe binds the probe side once the build has published its runtime
// filters, and cuts its morsels into the shards' contiguous shares. A fused
// scan's morsels are shared evenly; co-located, each morsel is one heap page
// and a shard's are its partition's; the probe child is drained, a morsel a
// row, its rows shared evenly.
func (j *shardedHashJoin) bindProbe() error {
	s := &j.src
	switch {
	case j.buildScan != nil:
		s.rf = bindRuntimeFilters(j.ctx, s.scan.RFConsume, s.scan.Cols)
		s.pages, s.npages = 1, s.scan.Table.Heap.NumPages()
		s.n, j.cut = s.npages, s.scan.Table.Part().PageStart
		return nil
	case s.scan != nil:
		s.bindScan(j.ctx, MorselPages)
	default:
		rows, err := drain(j.left)
		s.rows, s.n, j.left = rows, len(rows), nil
		if err != nil {
			return err
		}
	}
	j.cut = make([]int, j.n+1)
	for sh := range j.cut {
		j.cut[sh] = sh * s.n / j.n
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

// merge k-way merges the per-shard output streams — each already sorted
// by (Seq, BIdx) — into the exact serial emission order.
func (j *shardedHashJoin) merge(outs [][]ShufOut) {
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
		// The merged row is ours: cut it down to the node's Cols in place
		// (they ascend, so no value is overwritten before it has been moved).
		r := outs[best][cur[best]].Row
		j.out = append(j.out, appendCols(r[:0], r, j.node.Cols))
		cur[best]++
	}
}

// finishShards attributes each shard's units to the stats and merges them
// into the query clock — restoring the exact serial total. A shard's total
// is its coordinator-side clock (partition and probe scans, local build and
// probe) plus whatever the exchange reports it performed elsewhere (a
// worker process's shipped clock, folded in via MergeScaled in the same
// integer domain).
func (j *shardedHashJoin) finishShards(units []ShardUnits) {
	st := j.ctx.Shuffle
	for s, clk := range j.clks {
		u := units[s]
		total := clk.UnitsScaled() + u.UnitsScaled
		j.ctx.Clock.MergeScaled(u.UnitsScaled, u.SeqReads, u.RandReads, u.PageWrites, u.RowsCPU)
		st.addUnits(s, total)
		j.ctx.Clock.Merge(clk)
		if j.ctx.Trace != nil {
			j.ctx.Trace.Event("shuffle.shard", fmt.Sprintf(
				"shard=%d units=%.3f", s, float64(total)/storage.ClockScale))
		}
	}
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
		return j.fallback.Close() // and its pipeline releases the stage
	}
	j.out = nil
	j.stage.release()
	if j.left != nil {
		return j.left.Close()
	}
	return nil
}
