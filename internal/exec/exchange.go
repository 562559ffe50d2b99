package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// Morsel sizing. Scans hand out fixed page ranges; operators over
// materialized intermediates hand out fixed row ranges. Sizes are chosen so
// a morsel is large enough to amortize dispatch but small enough that a
// skewed morsel cannot leave the other workers idle for long.
const (
	// MorselPages is the number of heap pages per scan morsel.
	MorselPages = 8
	// MorselRows is the number of rows per morsel over materialized input.
	MorselRows = 512
	// ParallelMinRows is the default table-size floor below which
	// MarkParallel leaves a scan serial (fan-out overhead dominates).
	ParallelMinRows = 256
)

// morselCount returns how many size-unit morsels cover total units.
func morselCount(total, size int) int {
	return (total + size - 1) / size
}

// morselRange returns the [lo, hi) unit interval of morsel m.
func morselRange(m, size, total int) (int, int) {
	lo := m * size
	hi := lo + size
	if hi > total {
		hi = total
	}
	return lo, hi
}

// exchange is the gather side of a morsel fan-out: every morsel's output is a
// range of its worker's packed rows, and the exchange replays the ranges in
// morsel-index order. Because morsels partition the input in order, the
// merged stream is exactly the row order the serial operator would emit —
// the determinism guarantee parallel execution rides on.
//
// It is the pipeline's materialising sink. The rows arriving are lent (a
// scan's scratch row, a probe's reused output row) and packed as they come;
// the rows leaving are lent too, each boxed into the exchange's one row — a
// consumer that keeps rows copies them, as over any other operator.
type exchange struct {
	morsels []morselRows
	mi, pos int
	row     types.Row // the row lent by next
}

// morselRows is one morsel's output: rows [lo, lo+n) of its worker's store.
type morselRows struct {
	rows  *packedRows
	lo, n int
}

// reset prepares the exchange for n morsels.
func (x *exchange) reset(n int) {
	x.morsels = make([]morselRows, n)
	x.mi, x.pos = 0, 0
}

// begin starts morsel m at the end of the worker's store (each morsel is
// recorded once, by the worker that ran it; distinct indices never race).
func (x *exchange) begin(m int, _ *storage.Clock, st *morselScratch) (RowSink, func() int) {
	if st.kept == nil {
		st.kept = &packedRows{}
	}
	rows, lo := st.kept, st.kept.n
	return rows.add, func() int {
		x.morsels[m] = morselRows{rows, lo, rows.n - lo}
		return rows.n - lo
	}
}

// next lends the following row in morsel-merge order.
func (x *exchange) next() (types.Row, bool) {
	for x.mi < len(x.morsels) {
		if m := x.morsels[x.mi]; x.pos < m.n {
			x.pos++
			return m.rows.row(m.lo+x.pos-1, &x.row), true
		}
		x.mi++
		x.pos = 0
	}
	return nil, false
}

// take empties the exchange into rows of their own, in morsel-merge order:
// what a pipeline continues from after a stage that spilled.
func (x *exchange) take() []types.Row {
	var set RowSet
	for _, m := range x.morsels {
		for i := 0; i < m.n; i++ {
			r := set.Alloc(m.rows.w)
			m.rows.row(m.lo+i, &r)
		}
	}
	x.morsels = nil
	return set.Rows()
}

// runMorsels dispatches morsels 0..n-1 to up to dop workers pulling from a
// shared cursor (dynamic scheduling, so slow morsels do not stall the
// pool). Each worker charges a private shard of ctx.Clock; the shards merge
// back at the gather barrier, which keeps the simulated-cost total exactly
// equal to a serial execution performing the same charges. With dop <= 1
// (or a single morsel) the work runs inline on the caller's goroutine and
// clock. When tracing, one event per worker records its share of morsels,
// rows and cost — the per-worker view EXPLAIN ANALYZE surfaces.
//
// fn processes one morsel as worker w (below dop: what indexes a per-worker
// scratch), charging clk, and returns the number of rows it produced (trace
// bookkeeping only). The first error cancels remaining
// morsels; charges already made by other workers still merge, mirroring the
// serial operator whose partial work is also already on the clock when it
// fails.
func runMorsels(ctx *Context, label string, n, dop int, fn func(m, w int, clk *storage.Clock) (int, error)) error {
	if n <= 0 {
		return nil
	}
	if dop > n {
		dop = n
	}
	if dop <= 1 {
		for m := 0; m < n; m++ {
			if _, err := fn(m, 0, ctx.Clock); err != nil {
				return err
			}
		}
		return nil
	}
	type workerStat struct {
		morsels int
		rows    int
	}
	var (
		cursor int64 = -1
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	stats := make([]workerStat, dop)
	shards := make([]*storage.Clock, dop)
	errs := make([]error, dop)
	for w := 0; w < dop; w++ {
		shards[w] = ctx.Clock.Shard()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() {
				m := int(atomic.AddInt64(&cursor, 1))
				if m >= n {
					return
				}
				rows, err := fn(m, w, shards[w])
				if err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				stats[w].morsels++
				stats[w].rows += rows
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < dop; w++ {
		units := shards[w].Units()
		ctx.Clock.Merge(shards[w])
		if ctx.Trace != nil {
			ctx.Trace.Event("parallel.worker",
				fmt.Sprintf("%s worker=%d morsels=%d rows=%d cost=%.2f",
					label, w, stats[w].morsels, stats[w].rows, units))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
