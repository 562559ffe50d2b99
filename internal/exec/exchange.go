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

// morselBufPool recycles per-morsel output buffers across morsels and
// queries: every morsel needs a scratch slice to collect its rows before the
// exchange replays them, and at MorselRows-sized fan-outs the allocations
// otherwise dominate small-morsel work.
var morselBufPool = sync.Pool{
	New: func() any { return make([]types.Row, 0, MorselRows) },
}

// getMorselBuf returns an empty row buffer with pooled capacity.
func getMorselBuf() []types.Row {
	return morselBufPool.Get().([]types.Row)[:0]
}

// putMorselBuf clears the buffer's row references (so pooled memory does not
// pin query data) and returns it to the pool.
func putMorselBuf(b []types.Row) {
	clear(b[:cap(b)])
	morselBufPool.Put(b[:0])
}

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

// exchange is the gather side of a morsel fan-out: every morsel writes its
// output into a private buffer, and the exchange replays the buffers in
// morsel-index order. Because morsels partition the input in order, the
// merged stream is exactly the row order the serial operator would emit —
// the determinism guarantee parallel execution rides on.
//
// It is the pipeline's materialising sink. The rows arriving are lent (a
// scan's scratch row, a probe's reused output row): each is copied once into
// the worker's arena and the exchange owns what it holds — a consumer that
// keeps rows may take them as they are.
type exchange struct {
	bufs [][]types.Row
	mi   int
	pos  int
}

// reset prepares the exchange for n morsels.
func (x *exchange) reset(n int) {
	x.bufs = make([][]types.Row, n)
	x.mi, x.pos = 0, 0
}

// begin starts morsel m's buffer (each morsel is stored exactly once, by the
// worker that ran it; distinct indices never race).
func (x *exchange) begin(m int, _ *storage.Clock, st *morselScratch) (RowSink, func() int) {
	out := getMorselBuf()
	return func(r types.Row) error {
			out = append(out, st.arena.Copy(r))
			return nil
		}, func() int {
			x.bufs[m] = out
			return len(out)
		}
}

// next returns the following row in morsel-merge order.
func (x *exchange) next() (types.Row, bool) {
	for x.mi < len(x.bufs) {
		if b := x.bufs[x.mi]; x.pos < len(b) {
			r := b[x.pos]
			x.pos++
			return r, true
		}
		x.mi++
		x.pos = 0
	}
	return nil, false
}

// len returns how many rows the exchange holds.
func (x *exchange) len() int {
	n := 0
	for _, b := range x.bufs {
		n += len(b)
	}
	return n
}

// take empties the exchange into one slice in morsel-merge order.
func (x *exchange) take() []types.Row {
	rows := make([]types.Row, 0, x.len())
	for _, b := range x.bufs {
		rows = append(rows, b...)
	}
	x.release()
	return rows
}

// release returns the buffers to the morsel pool. Safe to call twice (the
// second call sees nil bufs and does nothing).
func (x *exchange) release() {
	for _, b := range x.bufs {
		if b != nil {
			putMorselBuf(b)
		}
	}
	x.bufs = nil
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
// fn processes one morsel, charging clk, and returns the number of rows it
// produced (trace bookkeeping only). The first error cancels remaining
// morsels; charges already made by other workers still merge, mirroring the
// serial operator whose partial work is also already on the clock when it
// fails.
func runMorsels(ctx *Context, label string, n, dop int, fn func(m int, clk *storage.Clock) (int, error)) error {
	if n <= 0 {
		return nil
	}
	if dop > n {
		dop = n
	}
	if dop <= 1 {
		for m := 0; m < n; m++ {
			if _, err := fn(m, ctx.Clock); err != nil {
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
				rows, err := fn(m, shards[w])
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
