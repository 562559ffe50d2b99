// Package storage provides the page-granular heap storage substrate and the
// deterministic cost clock that every experiment uses as its reproducible
// "response time". Robustness metrics in the Dagstuhl report compare
// relative plan behaviour (regressions, crossovers, variance), so a
// deterministic clock makes the reproduced figure shapes stable run-to-run
// while wall-clock timing stays available through testing.B.
package storage

import (
	"fmt"
	"sync/atomic"
)

// CostModel holds the unit charges of the simulated machine.
type CostModel struct {
	SeqPageRead  float64 // sequential page read
	RandPageRead float64 // random page read (index probe, RID fetch)
	PageWrite    float64 // page write (spills, inserts)
	RowCPU       float64 // per-row processing (filter, project, copy)
	HashProbe    float64 // per-probe hash table work
	Compare      float64 // per-comparison sort/merge work
	FilterTest   float64 // per-key runtime-filter membership test (Bloom + bounds)
	ZoneCheck    float64 // per-block zone-map / block-filter consultation
	NetRow       float64 // per-row cross-shard transfer through a shuffle exchange
}

// DefaultCostModel is the machine every experiment runs on. FilterTest is
// deliberately far below RowCPU + HashProbe: a runtime filter only decodes
// the key column and touches two Bloom bits, which is what makes dropping a
// probe row before full per-row processing a win.
func DefaultCostModel() CostModel {
	return CostModel{
		SeqPageRead:  1.0,
		RandPageRead: 4.0,
		PageWrite:    2.0,
		RowCPU:       0.01,
		HashProbe:    0.015,
		Compare:      0.012,
		FilterTest:   0.002,
		ZoneCheck:    0.001,
		// NetRow sits between FilterTest and RowCPU: moving a row between
		// shards ships a compact serialized tuple, cheaper than full per-row
		// processing but not free. Serial execution never charges it, which
		// is what keeps the shuffle overhead in a separate accounting domain
		// from the main-clock parity invariant.
		NetRow: 0.005,
	}
}

// Clock accumulates simulated cost. It is safe for concurrent use so that
// parallel operators and mixed workloads can share one clock.
type Clock struct {
	model CostModel

	// Counters are scaled by 1e6 and stored as integers for atomic math.
	units int64

	seqReads   int64
	randReads  int64
	pageWrites int64
	rowsCPU    int64
}

// NewClock returns a clock over the given cost model.
func NewClock(m CostModel) *Clock { return &Clock{model: m} }

// ClockScale is the clock's integer sub-unit resolution: one cost unit is
// ClockScale atomic increments. Exported so observers (trace spans) can
// accumulate attributed cost in the same exact integer domain.
const ClockScale = 1e6

const clockScale = ClockScale

func (c *Clock) add(u float64) { atomic.AddInt64(&c.units, int64(u*clockScale)) }

// SeqRead charges n sequential page reads.
func (c *Clock) SeqRead(n int) {
	atomic.AddInt64(&c.seqReads, int64(n))
	c.add(c.model.SeqPageRead * float64(n))
}

// RandRead charges n random page reads.
func (c *Clock) RandRead(n int) {
	atomic.AddInt64(&c.randReads, int64(n))
	c.add(c.model.RandPageRead * float64(n))
}

// Write charges n page writes.
func (c *Clock) Write(n int) {
	atomic.AddInt64(&c.pageWrites, int64(n))
	c.add(c.model.PageWrite * float64(n))
}

// RowWork charges per-row CPU for n rows.
func (c *Clock) RowWork(n int) {
	atomic.AddInt64(&c.rowsCPU, int64(n))
	c.add(c.model.RowCPU * float64(n))
}

// Probes charges n hash probes.
func (c *Clock) Probes(n int) { c.add(c.model.HashProbe * float64(n)) }

// addBatch charges n repetitions of the scaled unit charge u in one atomic
// add. Because every single-unit charge truncates the same float constant to
// the same integer, int64(n)*int64(u*clockScale) is exactly equal to n
// separate charges — the arithmetic identity that keeps per-block and
// per-build charges equal to per-row ones.
func (c *Clock) addBatch(n int, u float64) {
	atomic.AddInt64(&c.units, int64(n)*int64(u*clockScale))
}

// FilterTests charges n runtime-filter membership tests.
func (c *Clock) FilterTests(n int) { c.add(c.model.FilterTest * float64(n)) }

// FilterTestsBatch charges n runtime-filter membership tests, exactly equal
// to n calls of FilterTests(1).
func (c *Clock) FilterTestsBatch(n int) { c.addBatch(n, c.model.FilterTest) }

// ZoneChecks charges n zone-map (or block-granularity filter) consultations.
// ZoneCheck is far below even FilterTest: a zone check reads two cached
// min/max values per block instead of touching per-row data, which is what
// makes probing every block's statistics cheaper than reading any of them.
func (c *Clock) ZoneChecks(n int) { c.add(c.model.ZoneCheck * float64(n)) }

// Compares charges n comparisons.
func (c *Clock) Compares(n int) { c.add(c.model.Compare * float64(n)) }

// ComparesBatch charges n comparisons, exactly equal to n calls of
// Compares(1).
func (c *Clock) ComparesBatch(n int) { c.addBatch(n, c.model.Compare) }

// Units returns the accumulated cost in model units.
func (c *Clock) Units() float64 {
	return float64(atomic.LoadInt64(&c.units)) / clockScale
}

// UnitsScaled returns the accumulated cost in ClockScale sub-units — the
// clock's exact integer domain. Shard-level accounting stores these rather
// than float units so per-shard sums stay bit-exact against the merged
// total.
func (c *Clock) UnitsScaled() int64 { return atomic.LoadInt64(&c.units) }

// Counters returns the raw event counts (seq reads, rand reads, writes, rows).
func (c *Clock) Counters() (seq, rand, writes, rows int64) {
	return atomic.LoadInt64(&c.seqReads), atomic.LoadInt64(&c.randReads),
		atomic.LoadInt64(&c.pageWrites), atomic.LoadInt64(&c.rowsCPU)
}

// Reset zeroes the clock.
func (c *Clock) Reset() {
	atomic.StoreInt64(&c.units, 0)
	atomic.StoreInt64(&c.seqReads, 0)
	atomic.StoreInt64(&c.randReads, 0)
	atomic.StoreInt64(&c.pageWrites, 0)
	atomic.StoreInt64(&c.rowsCPU, 0)
}

// Model returns the clock's cost model.
func (c *Clock) Model() CostModel { return c.model }

// Shard returns a fresh child clock with the same cost model. Parallel
// operators hand one shard to each worker so per-row charging never
// contends on the parent's counters; Merge folds the shard back in at the
// gather barrier.
func (c *Clock) Shard() *Clock { return &Clock{model: c.model} }

// Merge adds a shard's accumulated counters into c. Charges are stored as
// unit-scaled integers, so a sharded execution that performs the same
// multiset of charge calls as a serial one accumulates an identical total,
// regardless of how work interleaved across workers.
func (c *Clock) Merge(s *Clock) {
	atomic.AddInt64(&c.units, atomic.LoadInt64(&s.units))
	atomic.AddInt64(&c.seqReads, atomic.LoadInt64(&s.seqReads))
	atomic.AddInt64(&c.randReads, atomic.LoadInt64(&s.randReads))
	atomic.AddInt64(&c.pageWrites, atomic.LoadInt64(&s.pageWrites))
	atomic.AddInt64(&c.rowsCPU, atomic.LoadInt64(&s.rowsCPU))
}

// MergeScaled folds externally-accumulated counters into c in the clock's
// exact integer domain. This is how a shard worker process's clock rejoins
// the coordinator's: the worker charges the same multiset of calls a local
// shard goroutine would, ships its scaled totals over the wire, and the
// merged sum stays bit-identical to serial execution — the same identity
// Merge provides in-process, now across a process boundary.
func (c *Clock) MergeScaled(units, seqReads, randReads, pageWrites, rowsCPU int64) {
	atomic.AddInt64(&c.units, units)
	atomic.AddInt64(&c.seqReads, seqReads)
	atomic.AddInt64(&c.randReads, randReads)
	atomic.AddInt64(&c.pageWrites, pageWrites)
	atomic.AddInt64(&c.rowsCPU, rowsCPU)
}

// String summarizes the clock state.
func (c *Clock) String() string {
	s, r, w, rows := c.Counters()
	return fmt.Sprintf("cost=%.2f (seq=%d rand=%d write=%d rows=%d)", c.Units(), s, r, w, rows)
}

// Stopwatch captures a start point on a clock so callers can measure the
// cost of a span of work.
type Stopwatch struct {
	clock *Clock
	start float64
}

// StartWatch begins measuring on the clock.
func (c *Clock) StartWatch() Stopwatch { return Stopwatch{clock: c, start: c.Units()} }

// Elapsed returns cost units accumulated since the watch started.
func (w Stopwatch) Elapsed() float64 { return w.clock.Units() - w.start }
