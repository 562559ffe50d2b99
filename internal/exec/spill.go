package exec

import (
	"fmt"
	"sort"
	"sync"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Graceful degradation under memory pressure: when the broker's grant does
// not cover an operator's build/state, the operator partitions its input by
// key hash into a fixed fan-out, keeps a prefix of partitions resident, and
// spills the rest to storage.TempRun partitions that are processed
// recursively once the probe/input side is exhausted. The partition
// function depends only on the key hash and the recursion depth — never on
// the grant — so a larger budget keeps a superset of partitions resident
// and the cost curve degrades monotonically as memory shrinks (the property
// the memory-axis robustness maps assert). At maxSpillDepth a partition
// that still does not fit falls back to external sort-merge, which works in
// streaming fashion for any size.
const (
	// maxSpillDepth bounds recursive repartitioning; beyond it the
	// sort-merge fallback takes over (duplicate-key skew cannot be split by
	// rehashing, no matter how deep).
	maxSpillDepth = 3
	// maxSpillFanout caps the per-level partition count.
	maxSpillFanout = 32
	// aggSpillFanout is the fixed fan-out for aggregation input spills (the
	// input size is unknown when spilling starts, so a size-derived fan-out
	// is not available).
	aggSpillFanout = 8
)

// spillFanout picks the partition count for a build of n rows: roughly one
// page per partition, clamped to [2, maxSpillFanout]. Deliberately
// independent of the grant so partition contents are identical across
// budgets.
func spillFanout(n int) int {
	f := (n + storage.PageRows - 1) / storage.PageRows
	if f < 2 {
		f = 2
	}
	if f > maxSpillFanout {
		f = maxSpillFanout
	}
	return f
}

// spillPartOf maps a key hash to a partition. The depth salt re-mixes the
// hash so recursive repartitioning splits a partition along fresh
// boundaries instead of reproducing it whole.
func spillPartOf(h uint64, depth, fanout int) int {
	h ^= uint64(depth+1) * 0x9e3779b97f4a7c15
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(fanout))
}

// SpillStats aggregates one query's graceful-degradation activity across
// every spilling operator (hash join, hash aggregation, external sort) —
// the raw numbers behind EXPLAIN ANALYZE spill events, the spill metrics
// and the memory-sweep robustness maps.
type SpillStats struct {
	mu             sync.Mutex
	partitions     int // partitions written to temp runs
	rows           int // rows written to temp runs
	pages          int // pages written to temp runs
	maxDepth       int // deepest recursion level that spilled
	mergeFallbacks int // partitions that fell back to sort-merge
}

func (s *SpillStats) record(partitions, rows, pages, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.partitions += partitions
	s.rows += rows
	s.pages += pages
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	s.mu.Unlock()
}

func (s *SpillStats) fallback() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.mergeFallbacks++
	s.mu.Unlock()
}

// Snapshot returns (partitions, rows, pages, maxDepth, mergeFallbacks).
func (s *SpillStats) Snapshot() (partitions, rows, pages, maxDepth, fallbacks int) {
	if s == nil {
		return 0, 0, 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.partitions, s.rows, s.pages, s.maxDepth, s.mergeFallbacks
}

// spillEvent records a spill trace event (visible in EXPLAIN ANALYZE).
func (ctx *Context) spillEvent(kind, format string, args ...any) {
	if ctx.Trace != nil {
		ctx.Trace.Event(kind, fmt.Sprintf(format, args...))
	}
}

// ---------- partitioned (grace/hybrid) hash join ----------

// spillJoin is the spill state of a hash joinStage whose build exceeded its
// grant. Probe rows whose partition is resident are answered immediately from
// table (preserving the streaming probe order), the rest are deferred to probe
// runs and joined when finish replays the spilled partitions.
type spillJoin struct {
	ctx      *Context
	node     *plan.JoinNode
	depth    int
	fanout   int
	table    *joinTable // resident partitions' build rows
	resident []bool
	bruns    []*storage.TempRun // spilled build partitions
	pruns    []*storage.TempRun // deferred probe rows, same partitioning
	arena    RowArena           // holds the spilled build rows and the deferred probe rows
}

// newSpillJoin partitions the drained build side under the given grant
// (already obtained — and kept — by the caller). Resident partitions are
// repacked into the table; spilled ones are boxed into rows their runs own.
func newSpillJoin(ctx *Context, node *plan.JoinNode, build *packedRows, grant, depth int) *spillJoin {
	s := &spillJoin{
		ctx:    ctx,
		node:   node,
		depth:  depth,
		fanout: spillFanout(build.n),
		table:  &joinTable{},
	}
	parts := make([][]int32, s.fanout) // row ids, in build order
	key := make([]types.Value, len(node.RightKeys))
	for i := 0; i < build.n; i++ {
		if build.keyInto(key, i, node.RightKeys); keyHasNull(key) {
			continue // a null key matches nothing on either join type
		}
		p := spillPartOf(types.HashRow(key), depth, s.fanout)
		parts[p] = append(parts[p], int32(i))
	}
	// Keep the longest prefix of partitions that fits the grant resident;
	// spill the rest. Residency depends on the grant only through this
	// cutoff, so a bigger budget spills a subset of the partitions a smaller
	// one does (monotone degradation).
	s.resident = make([]bool, s.fanout)
	s.bruns = make([]*storage.TempRun, s.fanout)
	s.pruns = make([]*storage.TempRun, s.fanout)
	var scratch types.Row
	spilledParts, spilledRows, spilledPages := 0, 0, 0
	for p, ids := range parts {
		if s.table.rows.n+len(ids) <= grant {
			s.resident[p] = true
			for _, i := range ids {
				s.table.rows.add(build.row(int(i), &scratch))
			}
			continue
		}
		run := storage.NewTempRun()
		for _, i := range ids {
			r := s.arena.Alloc(build.w)
			run.Append(ctx.Clock, build.row(int(i), &r))
		}
		s.bruns[p] = run
		s.pruns[p] = storage.NewTempRun()
		spilledParts++
		spilledRows += run.Len()
		spilledPages += run.Pages()
	}
	s.table.index(node.RightKeys, ctx.Clock, 2) // insert costs double a probe (see cost model)
	ctx.Spill.record(spilledParts, spilledRows, spilledPages, depth)
	ctx.spillEvent("spill.partition", "%s depth=%d fanout=%d resident=%d/%d spilled_rows=%d pages=%d grant=%d",
		node.Label(), depth, s.fanout, s.fanout-spilledParts, s.fanout, spilledRows, spilledPages, grant)
	return s
}

// deferProbe routes one probe row by its (non-null) key hash: false when
// its partition is resident and the caller should probe table now; true
// when the partition spilled and the row was copied to its probe run, to be
// joined (matches and outer row alike) by finish. The caller charges its
// per-probe-row cost itself; deferral charges only the page writes.
func (s *spillJoin) deferProbe(lr types.Row, h uint64) bool {
	p := spillPartOf(h, s.depth, s.fanout)
	if s.resident[p] {
		return false
	}
	run := s.pruns[p]
	pagesBefore := run.Pages()
	run.Append(s.ctx.Clock, s.arena.Copy(lr))
	s.ctx.Spill.record(0, 1, run.Pages()-pagesBefore, s.depth)
	return true
}

// finish replays the spilled partition pairs in partition order, handing
// every joined (and, for left-outer, null-extended) output row to emit —
// in a reused buffer, so emit copies what it keeps. Partitions with no
// deferred probe rows are discarded unread — no probe row can match them
// (and left-outer null extension concerns only probe rows, which were all
// answered or deferred).
func (s *spillJoin) finish(emit func(types.Row) error) error {
	for p := 0; p < s.fanout; p++ {
		if s.resident[p] {
			continue
		}
		if s.pruns[p].Len() == 0 {
			s.bruns[p].Discard()
			continue
		}
		build := s.bruns[p].Drain(s.ctx.Clock)
		probe := s.pruns[p].Drain(s.ctx.Clock)
		if err := joinPartition(s.ctx, s.node, build, probe, s.depth+1, emit); err != nil {
			return err
		}
	}
	return nil
}

// close frees the resident table and any remaining runs. The caller owns
// (and releases) the grant backing the resident table.
func (s *spillJoin) close() {
	s.table = nil
	for p := range s.bruns {
		if s.bruns[p] != nil {
			s.bruns[p].Discard()
		}
		if s.pruns[p] != nil {
			s.pruns[p].Discard()
		}
	}
	s.bruns, s.pruns = nil, nil
}

// joinPartition joins one spilled (build, probe) partition pair through the
// same joinStage and joinProbe as the in-memory join: in memory when the
// grant covers the build, by recursive repartitioning otherwise, and by
// external sort-merge once the recursion bound is hit. Charges therefore
// mirror the in-memory hash join exactly (insert = 2 probes per build row,
// 1 probe per probe row, 1 row of CPU per emitted row) plus the temp-run
// I/O charged where rows actually move.
func joinPartition(ctx *Context, node *plan.JoinNode, build, probe []types.Row, depth int, emit func(types.Row) error) error {
	b := &joinStage{ctx: ctx, node: node, grant: ctx.Mem.Grant(len(build)), held: true}
	defer b.release()
	switch {
	case len(build) <= b.grant:
		b.tab = packRows(build)
		b.tab.index(node.RightKeys, ctx.Clock, 2)
	case depth > maxSpillDepth:
		return mergeJoinSpilled(ctx, node, build, probe, emit)
	default:
		b.openSpill(&packRows(build).rows, depth)
	}
	p := b.prober()
	for _, lr := range probe {
		if err := p.each(ctx.Clock, lr, emit); err != nil {
			return err
		}
	}
	if b.spill != nil {
		return b.spill.finish(emit)
	}
	return nil
}

// mergeJoinSpilled is the external sort-merge fallback for a partition that
// will not fit even after maxSpillDepth repartitionings (duplicate-key
// skew). Both sides sort in grant-sized runs (one write+read pass over both
// sides for the runs), then a merge join streams over them, LEFT OUTER
// included.
func mergeJoinSpilled(ctx *Context, node *plan.JoinNode, build, probe []types.Row, emit func(types.Row) error) error {
	ctx.Spill.fallback()
	ctx.spillEvent("spill.merge_fallback", "%s build=%d probe=%d", node.Label(), len(build), len(probe))
	pages := (len(build)+storage.PageRows-1)/storage.PageRows +
		(len(probe)+storage.PageRows-1)/storage.PageRows
	ctx.Clock.Write(pages)
	ctx.Clock.SeqRead(pages)
	j := newMergeJoin(ctx, node, nil, nil)
	j.start(probe, build)
	for {
		out, ok, err := j.Next()
		if !ok {
			return err
		}
		if err := emit(out); err != nil {
			return err
		}
	}
}

// ---------- spilling hash aggregation ----------

// aggSink is the grouping state of one worker's hash aggregation: resident
// groups up to the broker's grant, input rows for groups beyond it spilled
// to hash partitions that finish re-aggregates recursively. A group is
// either entirely resident or entirely spilled: rows of a key seen before
// the table filled keep accumulating in place.
type aggSink struct {
	ctx   *Context
	depth int
	grant int
	tab   aggTable
	runs  []*storage.TempRun
	arena RowArena // holds the spilled input rows
}

// newAggSink obtains a group-state grant from the broker (asking for the
// whole budget, like the external sort) and prepares the resident table.
func newAggSink(ctx *Context, lay *aggLayout, depth int) *aggSink {
	return &aggSink{
		ctx:   ctx,
		depth: depth,
		grant: ctx.Mem.Grant(1 << 20),
		tab:   newAggTable(lay),
	}
}

// add routes one input row, charging its probe: accumulate into its (existing
// or newly created) resident group, or spill the row to its key partition
// when the resident table is full and the key is new. r must remain valid
// until add returns; spilled rows are copied.
func (s *aggSink) add(r types.Row) error {
	s.ctx.Clock.Probes(1)
	h, ok, err := s.tab.fold(r, s.ctx.Params, s.grant)
	if ok || err != nil {
		return err
	}
	if s.runs == nil {
		s.runs = make([]*storage.TempRun, aggSpillFanout)
		for p := range s.runs {
			s.runs[p] = storage.NewTempRun()
		}
		s.ctx.Spill.record(aggSpillFanout, 0, 0, s.depth)
		s.ctx.spillEvent("spill.agg", "%s depth=%d resident_groups=%d fanout=%d grant=%d",
			s.tab.lay.node.Label(), s.depth, len(s.tab.hashes), aggSpillFanout, s.grant)
	}
	p := spillPartOf(h, s.depth, aggSpillFanout)
	run := s.runs[p]
	pagesBefore := run.Pages()
	run.Append(s.ctx.Clock, s.arena.Copy(r))
	s.ctx.Spill.record(0, 1, run.Pages()-pagesBefore, s.depth)
	return nil
}

// finish releases the group-state grant and re-aggregates the spilled
// partitions: recursively through a sub-sink while depth remains, by
// sort-and-stream beyond it (sorting on the group key lets groups complete
// one at a time in O(1) group state — the aggregation analogue of the
// sort-merge join fallback). Returns every group, resident first, then
// partition by partition; callers sort groups on the key afterwards, so
// output order is independent of the spill pattern.
func (s *aggSink) finish() ([]aggSeg, error) {
	out := s.tab.segs
	s.ctx.Mem.Release(s.grant)
	s.grant = 0
	for _, run := range s.runs {
		if run.Len() == 0 {
			continue
		}
		rows := run.Drain(s.ctx.Clock)
		if s.depth+1 > maxSpillDepth {
			seg, err := s.sortedAggregate(rows)
			if err != nil {
				return nil, err
			}
			out = append(out, seg)
			continue
		}
		sub := newAggSink(s.ctx, s.tab.lay, s.depth+1)
		for _, r := range rows {
			if err := sub.add(r); err != nil {
				return nil, err
			}
		}
		segs, err := sub.finish()
		if err != nil {
			return nil, err
		}
		out = append(out, segs...)
	}
	s.runs = nil
	return out, nil
}

// sortedAggregate is the fallback for a partition still too large at the
// recursion bound: sort the rows on the group key (comparisons charged like
// any sort), then stream-aggregate with one comparison per row into a segment
// no table indexes.
func (s *aggSink) sortedAggregate(rows []types.Row) (aggSeg, error) {
	s.ctx.Spill.fallback()
	s.ctx.spillEvent("spill.merge_fallback", "%s rows=%d", s.tab.lay.node.Label(), len(rows))
	w := s.tab.lay.keyW
	keys := make([]types.Value, len(rows)*w)
	idx := make([]int, len(rows))
	for i, r := range rows {
		if err := s.tab.lay.evalKey(keys[i*w:(i+1)*w], r, s.ctx.Params); err != nil {
			return aggSeg{}, err
		}
		idx[i] = i
	}
	n := len(rows)
	if n > 1 {
		s.ctx.Clock.Compares(int(float64(n) * log2(float64(n))))
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return compareKeys(keys[idx[a]*w:(idx[a]+1)*w], keys[idx[b]*w:(idx[b]+1)*w]) < 0
	})
	var out aggSeg
	for _, i := range idx {
		s.ctx.Clock.Compares(1)
		if key := keys[i*w : (i+1)*w]; out.n == 0 || !rowsEqual(s.tab.lay.key(&out, out.n-1), key) {
			s.tab.lay.push(&out, key)
		}
		if err := s.tab.lay.accum(&out, out.n-1, rows[i], s.ctx.Params); err != nil {
			return aggSeg{}, err
		}
	}
	return out, nil
}

// close discards any remaining runs and returns the grant (finish normally
// does both; close covers error paths).
func (s *aggSink) close() {
	if s.grant > 0 {
		s.ctx.Mem.Release(s.grant)
		s.grant = 0
	}
	for _, run := range s.runs {
		run.Discard()
	}
	s.runs = nil
}
