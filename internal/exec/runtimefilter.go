package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Runtime join filters: when a hash join finishes its build phase it derives
// a Bloom filter plus min/max bounds over each join-key column and publishes
// them into the query's RuntimeFilterSet. Probe-side scans that the planner
// annotated as consumers (plan.PlanRuntimeFilters) test each row's key
// against the published filters and drop non-qualifying rows before they pay
// full per-row cost. Dropped rows are charged only CostModel.FilterTest;
// surviving rows proceed through the normal RowCPU/HashProbe pipeline.
//
// Robustness guarantee: each filter tracks its observed drop rate and
// disables itself at a window boundary when the rate falls below the
// cost-model break-even (FilterTest / (RowCPU + HashProbe)), so a filter
// that turns out to be non-selective bounds the query's overhead at roughly
// one observation window of membership tests plus the build charge.

const (
	// rfBitsPerKey sizes the Bloom filter (~10 bits/key ≈ 1% false-positive
	// rate at two hash functions, which is plenty: false positives only
	// forfeit savings, never correctness).
	rfBitsPerKey = 10
	// rfMinBits floors tiny builds so the mask math stays well-formed.
	rfMinBits = 256
	// rfWindow is how many tested rows a filter observes between adaptive
	// disable decisions.
	rfWindow = 1024
	// rfMinDropRate is the break-even drop rate under DefaultCostModel:
	// a test costs FilterTest=0.002 and a drop saves RowCPU+HashProbe=0.025,
	// so below 0.002/0.025 = 0.08 the filter costs more than it saves.
	rfMinDropRate = 0.08
)

// RuntimeFilter is one Bloom + min/max filter derived from a completed hash
// join build over a single join-key column. All probe-side state transitions
// are atomic so morsel workers can test and observe concurrently.
type RuntimeFilter struct {
	ID        int
	words     []uint64
	mask      uint64
	min, max  types.Value
	bounded   bool
	buildRows int

	tested   int64 // atomic: probe rows tested
	dropped  int64 // atomic: probe rows dropped
	disabled int32 // atomic: 1 once adaptively disabled
}

// newRuntimeFilter sizes a filter for a build side of buildRows rows.
func newRuntimeFilter(id, buildRows int) *RuntimeFilter {
	nbits := rfBitsPerKey * buildRows
	if nbits < rfMinBits {
		nbits = rfMinBits
	}
	n := 1
	for n < nbits {
		n <<= 1
	}
	return &RuntimeFilter{ID: id, words: make([]uint64, n/64), mask: uint64(n - 1), buildRows: buildRows}
}

// rfMix derives the second Bloom hash from the first (murmur finalizer
// steps), giving k=2 independent bit positions per key.
func rfMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (f *RuntimeFilter) setBit(h uint64) {
	b := h & f.mask
	f.words[b>>6] |= 1 << (b & 63)
}

func (f *RuntimeFilter) getBit(h uint64) bool {
	b := h & f.mask
	return f.words[b>>6]&(1<<(b&63)) != 0
}

// add inserts one build-side key. Null keys are skipped: they never match
// an inner-join probe, so leaving them out lets test reject null probe keys
// outright. Not safe for concurrent use — the build owns its filter until it
// publishes it.
func (f *RuntimeFilter) add(v types.Value) {
	if v.IsNull() {
		return
	}
	h := v.Hash()
	f.setBit(h)
	f.setBit(rfMix(h))
	if !f.bounded {
		f.min, f.max, f.bounded = v, v, true
	} else {
		if types.Compare(v, f.min) < 0 {
			f.min = v
		}
		if types.Compare(v, f.max) > 0 {
			f.max = v
		}
	}
}

func (f *RuntimeFilter) enabled() bool { return atomic.LoadInt32(&f.disabled) == 0 }

// test reports whether a probe key might have a build-side match. False
// negatives are impossible (every build key set its bits); false positives
// only forfeit savings. An empty or all-null build drops every probe row,
// which is exactly right for an inner join.
func (f *RuntimeFilter) test(v types.Value) bool {
	if v.IsNull() {
		return false
	}
	if f.bounded {
		if types.Compare(v, f.min) < 0 || types.Compare(v, f.max) > 0 {
			return false
		}
	}
	h := v.Hash()
	return f.getBit(h) && f.getBit(rfMix(h))
}

// observe records one test outcome and, at each window boundary, disables
// the filter when its drop rate is below break-even. The decision depends
// only on the sequence of (tested, dropped) counter values, so serial
// executions — which test rows in the same order — disable at the identical
// row and stay cost-identical.
func (f *RuntimeFilter) observe(drop bool, set *RuntimeFilterSet) {
	if drop {
		atomic.AddInt64(&f.dropped, 1)
	}
	t := atomic.AddInt64(&f.tested, 1)
	if t%rfWindow != 0 {
		return
	}
	if float64(atomic.LoadInt64(&f.dropped))/float64(t) >= rfMinDropRate {
		return
	}
	if atomic.CompareAndSwapInt32(&f.disabled, 0, 1) {
		atomic.AddInt64(&set.disabledN, 1)
		if set.trace != nil {
			set.trace.Event("rf.disable", fmt.Sprintf("filter=%d tested=%d dropped=%d", f.ID, t, atomic.LoadInt64(&f.dropped)))
		}
	}
}

// RuntimeFilterSet is the per-query registry connecting producers (hash join
// builds) to consumers (probe-side scans). A nil set disables the feature.
type RuntimeFilterSet struct {
	mu      sync.RWMutex
	filters map[int]*RuntimeFilter
	trace   *obs.Trace

	disabledN int64 // atomic
}

// NewRuntimeFilterSet returns an empty set. tr may be nil (tracing off).
func NewRuntimeFilterSet(tr *obs.Trace) *RuntimeFilterSet {
	return &RuntimeFilterSet{filters: make(map[int]*RuntimeFilter), trace: tr}
}

func (s *RuntimeFilterSet) publish(f *RuntimeFilter) {
	s.mu.Lock()
	s.filters[f.ID] = f
	s.mu.Unlock()
}

func (s *RuntimeFilterSet) lookup(id int) *RuntimeFilter {
	s.mu.RLock()
	f := s.filters[id]
	s.mu.RUnlock()
	return f
}

// Snapshot totals the set's activity for EXPLAIN ANALYZE and metrics.
func (s *RuntimeFilterSet) Snapshot() (built, tested, dropped, disabled int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, f := range s.filters {
		built++
		tested += atomic.LoadInt64(&f.tested)
		dropped += atomic.LoadInt64(&f.dropped)
	}
	return built, tested, dropped, atomic.LoadInt64(&s.disabledN)
}

// buildRuntimeFilters derives and publishes the filters a hash join's plan
// node announced from its drained build rows, read one key column at a time
// (no row is boxed for it): once per join, before its grant, at any DOP.
// Charged at FilterTest per build row per filter on the context clock (batch
// charge: exactly equal to per-row charges by the Clock.addBatch identity).
func buildRuntimeFilters(ctx *Context, node *plan.JoinNode, rows *packedRows) {
	if ctx.RF == nil || len(node.RFilters) == 0 {
		return
	}
	n := rows.n
	for _, sp := range node.RFilters {
		f := newRuntimeFilter(sp.ID, n)
		ctx.Clock.FilterTestsBatch(n)
		col := node.RightKeys[sp.Col]
		for i := 0; i < n; i++ {
			f.add(rows.value(i, col))
		}
		ctx.RF.publish(f)
		if ctx.Trace != nil {
			ctx.Trace.Event("rf.build", fmt.Sprintf("filter=%d keys=%d bits=%d", f.ID, n, len(f.words)*64))
		}
	}
}

// rfConsumer is a scan's bound view of the filters it consumes: parallel
// slices of filter and the table column each one tests — rows are admitted
// as stored, before the scan projects them.
type rfConsumer struct {
	set     *RuntimeFilterSet
	filters []*RuntimeFilter
	cols    []int
}

// bindRuntimeFilters resolves a scan node's consumer annotations against the
// query's filter set, mapping each spec's scan-output ordinal through the
// scan's Cols once, here. Returns nil when the feature is off, nothing is
// annotated, or no announced filter has been published yet (a filter can be
// missing only if its producing join never opened — e.g. pruned subtree —
// in which case the scan just runs unfiltered).
func bindRuntimeFilters(ctx *Context, specs []plan.RFilterSpec, cols []int) *rfConsumer {
	if ctx.RF == nil || len(specs) == 0 {
		return nil
	}
	c := &rfConsumer{set: ctx.RF}
	for _, sp := range specs {
		if f := ctx.RF.lookup(sp.ID); f != nil {
			c.filters = append(c.filters, f)
			c.cols = append(c.cols, plan.TableCol(cols, sp.Col))
		}
	}
	if len(c.filters) == 0 {
		return nil
	}
	return c
}

// admit tests one row against every enabled filter, charging FilterTest per
// membership test on clk. Reports false when any filter rejects the row.
func (c *rfConsumer) admit(clk *storage.Clock, r types.Row) bool {
	for i, f := range c.filters {
		if !f.enabled() {
			continue
		}
		clk.FilterTests(1)
		ok := f.test(r[c.cols[i]])
		f.observe(!ok, c.set)
		if !ok {
			return false
		}
	}
	return true
}
