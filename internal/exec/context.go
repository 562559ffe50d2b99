package exec

import (
	"errors"
	"fmt"
	"sync"

	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Context carries everything operators need at run time.
type Context struct {
	Clock  *storage.Clock
	Params []types.Value
	Mem    *MemBroker
	// OnActual, if set, is invoked for every node when its operator
	// finishes, with the observed output cardinality (LEO feedback hook).
	OnActual func(node plan.Node, actual float64)
	// Trace, if set, collects a span per operator (cost consumed, rows
	// estimated vs. actual) plus engine-level events. Untraced runs pay
	// nothing beyond a nil check per operator call.
	Trace *obs.Trace
	// DOP is the degree of parallelism: how many workers drain each morsel
	// pipeline (zero and one mean one). It selects nothing else; rows and
	// integer cost are the same at any count.
	DOP int
	// Spill aggregates graceful-degradation activity (partitions spilled,
	// temp-run rows/pages written, recursion depth, merge fallbacks) across
	// the query's operators. Nil-safe: a nil Spill records nothing.
	Spill *SpillStats
	// RF, when non-nil, enables runtime join filters: hash joins publish
	// Bloom + min/max filters into it after draining their build side, and
	// scans annotated by plan.PlanRuntimeFilters bind and test them. Nil
	// (the default) disables the feature entirely.
	RF *RuntimeFilterSet
	// ColBlocksSkipped and ColBlocksScanned count columnar-scan block
	// outcomes across the query (zone-map or runtime-filter prunes, or
	// blocks changed pages cover, vs. decoded blocks); ColHeapPages counts
	// the pages columnar scans read from the heap instead — changed since
	// the snapshot was built, or added after it. Atomics: morsel workers
	// update them concurrently.
	ColBlocksSkipped int64
	ColBlocksScanned int64
	ColHeapPages     int64
	// Shards is the logical shard ("node") count for sharded scale-out
	// execution. Above one, Build routes hash joins annotated by
	// opt.PlanShuffles through the shuffle-exchange operators; zero or one
	// keeps the unsharded paths.
	Shards int
	// Shuffle aggregates shuffle-exchange activity (rows moved/broadcast,
	// hot-key splits, per-shard cost attribution) for the query. Nil-safe:
	// nil records nothing.
	Shuffle *ShuffleStats
	// NoHotSplit disables skew-triggered hot-key splitting (a bench and
	// experiment control for measuring the unmitigated skew cliff).
	NoHotSplit bool
	// ShufTransport, when non-nil, runs sharded joins' exchanges through it
	// (e.g. the server package's TCP transport to rqpserver -shard-worker
	// processes). Nil means the in-process transport=local fast path.
	ShufTransport ShuffleTransport
	// Canceled, when non-nil, is polled at the query's root drain loop
	// (every cancelCheckRows result rows): returning true aborts execution
	// with ErrCanceled. This is the cooperative cancellation hook the
	// network service layer uses for client Cancel frames and disconnects;
	// nil (the default) costs nothing.
	Canceled func() bool
}

// cancelCheckRows is how many root result rows flow between Canceled polls:
// frequent enough that a runaway scan stops promptly, rare enough that the
// per-row cost of the poll is unmeasurable.
const cancelCheckRows = 256

// ErrCanceled reports that the query's Canceled hook fired mid-execution.
// The partial result is discarded; the simulated cost consumed so far stays
// on the clock (work done is work done).
var ErrCanceled = errors.New("exec: query canceled")

// NewContext returns a context over a fresh clock and an effectively
// unlimited memory budget.
func NewContext() *Context {
	return &Context{
		Clock: storage.NewClock(storage.DefaultCostModel()),
		Mem:   NewMemBroker(1 << 30),
		Spill: &SpillStats{},
	}
}

// MemBroker arbitrates workspace memory (counted in rows) among operators.
// Budgets may shrink or grow while queries run; operators re-check their
// grant at phase boundaries, which is exactly the "grow & shrink memory"
// robustness technique from the report's execution sessions.
type MemBroker struct {
	mu          sync.Mutex
	budget      int
	inUse       int
	peak        int
	overcommits int
	schedule    func(step int) int
	step        int
	// OnEvent, if set, observes every grant and release ("grant" or
	// "release", the rows moved, in-use after, and the budget) — the trace
	// hook for memory-pressure diagnostics.
	OnEvent func(kind string, rows, inUse, budget int)
}

// NewMemBroker returns a broker with the given total budget in rows.
func NewMemBroker(budgetRows int) *MemBroker {
	return &MemBroker{budget: budgetRows}
}

// SetBudget changes the total budget (may drop below current use; future
// grants shrink accordingly).
func (m *MemBroker) SetBudget(rows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = rows
}

// Budget returns the current total budget.
func (m *MemBroker) Budget() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.budget
}

// SetSchedule installs a memory-pressure schedule: before every grant the
// broker re-reads its budget as schedule(step) for a step counter that
// advances per grant — the fault injector behind Config.MemSchedule and the
// rqpsh -mem-shrink flag, stepping the budget mid-query at exactly the
// moments operators re-negotiate memory. A nil schedule (the default)
// leaves the budget alone. Resets the step counter.
func (m *MemBroker) SetSchedule(f func(step int) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.schedule = f
	m.step = 0
}

// Grant requests up to want rows of workspace; the broker returns what it
// can give, and never less than min(want, 16): the progress floor that
// guarantees every operator can always make forward progress no matter how
// far the budget has been shrunk (a zero grant would leave grant-sized-run
// loops spinning forever). Non-positive requests return zero without
// touching broker state. Progress-floor grants can push use past the
// budget; such overcommits are counted and surfaced through Overcommits
// and the metrics registry.
func (m *MemBroker) Grant(want int) int {
	if want <= 0 {
		return 0
	}
	m.mu.Lock()
	if m.schedule != nil {
		m.budget = m.schedule(m.step)
		m.step++
	}
	avail := m.budget - m.inUse
	g := want
	if g > avail {
		g = avail
	}
	floor := want
	if floor > 16 {
		floor = 16
	}
	if g < floor {
		g = floor
	}
	m.inUse += g
	if m.inUse > m.budget {
		m.overcommits++
	}
	if m.inUse > m.peak {
		m.peak = m.inUse
	}
	ev, inUse, budget := m.OnEvent, m.inUse, m.budget
	m.mu.Unlock()
	if ev != nil {
		ev("grant", g, inUse, budget)
	}
	return g
}

// Release returns a grant to the pool.
func (m *MemBroker) Release(rows int) {
	m.mu.Lock()
	m.inUse -= rows
	if m.inUse < 0 {
		m.inUse = 0
	}
	ev, inUse, budget := m.OnEvent, m.inUse, m.budget
	m.mu.Unlock()
	if ev != nil {
		ev("release", rows, inUse, budget)
	}
}

// Overcommits reports how many grants pushed use beyond the budget (the
// progress floor guarantees forward progress at the price of overcommit).
func (m *MemBroker) Overcommits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overcommits
}

// PeakUse reports the high-water mark of granted rows.
func (m *MemBroker) PeakUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// InUse reports granted rows.
func (m *MemBroker) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inUse
}

// Operator is the Volcano iterator interface. Row ownership: the row Next
// returns belongs to the operator and is valid only until the next call
// (Next or Close) on it — producers reuse one output buffer. A consumer that
// keeps a row across calls copies it first (RowArena); passing it straight
// on, or reading it before pulling again, needs no copy.
type Operator interface {
	Open() error
	Next() (types.Row, bool, error)
	Close() error
}

// counted wraps an operator to record its output cardinality into the plan
// node's Props and fire the feedback hook. It carries no tracing state:
// untraced queries — the common case — pay only the row count increment per
// Next, with no span branch on the hot path. Traced queries get the
// tracedCounted variant instead.
type counted struct {
	op   Operator
	node plan.Node
	ctx  *Context
	n    float64
	done bool
}

func (c *counted) Open() error { return c.op.Open() }

func (c *counted) Next() (types.Row, bool, error) {
	r, ok, err := c.op.Next()
	if err != nil {
		return nil, false, err
	}
	if ok {
		c.n++
		return r, true, nil
	}
	c.finish()
	return nil, false, nil
}

func (c *counted) finish() {
	if c.done {
		return
	}
	c.done = true
	c.node.Props().SetActualRows(c.n)
	if c.ctx.OnActual != nil {
		c.ctx.OnActual(c.node, c.n)
	}
}

func (c *counted) Close() error {
	c.finish()
	return c.op.Close()
}

// tracedCounted is counted plus span accounting: per-call cost attribution
// and call counts for EXPLAIN ANALYZE. Chosen once at build time, so the
// per-row tracing overhead exists only when a tracer is attached.
type tracedCounted struct {
	op   Operator
	node plan.Node
	ctx  *Context
	span *obs.Span
	n    float64
	done bool
}

func (c *tracedCounted) Open() error {
	w := c.ctx.Clock.StartWatch()
	err := c.op.Open()
	c.span.AddCost(w.Elapsed())
	return err
}

func (c *tracedCounted) Next() (types.Row, bool, error) {
	w := c.ctx.Clock.StartWatch()
	r, ok, err := c.op.Next()
	c.span.AddCost(w.Elapsed())
	c.span.AddCall()
	if err != nil {
		return nil, false, err
	}
	if ok {
		c.n++
		c.span.AddRows(1)
		return r, true, nil
	}
	c.finish()
	return nil, false, nil
}

func (c *tracedCounted) finish() {
	if c.done {
		return
	}
	c.done = true
	c.node.Props().SetActualRows(c.n)
	c.span.Finish(c.n)
	if c.ctx.OnActual != nil {
		c.ctx.OnActual(c.node, c.n)
	}
}

func (c *tracedCounted) Close() error {
	c.finish()
	w := c.ctx.Clock.StartWatch()
	err := c.op.Close()
	c.span.AddCost(w.Elapsed())
	return err
}

// Build constructs the operator tree for a physical plan. When the context
// carries a tracer, a span-tree fragment mirroring the plan is registered
// so every operator reports cost and cardinality into it.
func Build(n plan.Node, ctx *Context) (Operator, error) {
	if ctx.Trace != nil {
		ctx.Trace.AddFragment(n)
	}
	op, err := build(n, ctx)
	if err != nil {
		return nil, err
	}
	return op, nil
}

func build(n plan.Node, ctx *Context) (Operator, error) {
	var op Operator
	switch node := n.(type) {
	case *plan.ScanNode:
		g, err := newGather(ctx, node)
		if err != nil {
			return nil, err
		}
		op = g
	case *plan.TempScanNode:
		op = &tempScan{ctx: ctx, node: node}
	case *plan.IndexScanNode:
		op = &indexScan{ctx: ctx, node: node}
	case *plan.FilterNode:
		child, err := build(node.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		op = &filterOp{ctx: ctx, pred: node.Pred, child: child}
	case *plan.ProjectNode:
		child, err := build(node.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		op = &projectOp{ctx: ctx, exprs: node.Exprs, child: child}
	case *plan.JoinNode, *plan.IndexJoinNode:
		var err error
		switch j, _ := n.(*plan.JoinNode); {
		case j != nil && ctx.shardEligible(j):
			op, err = newShardedHashJoin(ctx, j)
		case ctx.fusesJoin(n):
			op, err = newGather(ctx, n)
		default:
			op, err = buildJoin(j, ctx)
		}
		if err != nil {
			return nil, err
		}
	case *plan.SortNode:
		child, err := build(node.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		op = &sortOp{ctx: ctx, keys: node.Keys, child: child}
	case *plan.AggNode:
		a := &aggregate{node: node}
		if err := a.fuse(ctx, node, node.Kids[0]); err != nil {
			return nil, err
		}
		op = a
	case *plan.DistinctNode:
		child, err := build(node.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		op = &distinctOp{ctx: ctx, child: child}
	case *plan.LimitNode:
		child, err := build(node.Kids[0], ctx)
		if err != nil {
			return nil, err
		}
		op = &limitOp{n: node.N, skip: node.Skip, child: child}
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
	if span := ctx.span(n); span != nil {
		return wrapOp(&tracedCounted{op: op, node: n, ctx: ctx, span: span}), nil
	}
	return wrapOp(&counted{op: op, node: n, ctx: ctx}), nil
}

// span returns n's trace span, nil when the query is not traced.
func (ctx *Context) span(n plan.Node) *obs.Span {
	if ctx.Trace == nil {
		return nil
	}
	return ctx.Trace.SpanOf(n)
}

// RowSink receives the rows of a drained plan, one call per row, in result
// order. The row is lent, not given: it belongs to the producing operator
// and is valid only until the sink returns (the operator's next call may
// overwrite it), so a sink either finishes with the row — encodes it,
// folds it into a total — or copies it. A non-nil error stops the drain and
// comes back from it.
type RowSink func(types.Row) error

// Drain executes a plan to completion, handing every result row to sink,
// and returns how many rows the plan produced. A nil sink keeps the result
// instead: the rows come back too, each copied exactly once. Actual
// cardinalities are recorded on every node. When the context carries a
// Canceled hook it is checked before execution starts and every
// cancelCheckRows rows.
func Drain(n plan.Node, ctx *Context, sink RowSink) ([]types.Row, int, error) {
	if ctx.Canceled != nil && ctx.Canceled() {
		return nil, 0, ErrCanceled
	}
	op, err := Build(n, ctx)
	if err != nil {
		return nil, 0, err
	}
	if sink != nil {
		count, err := runOp(op, ctx, sink)
		return nil, count, err
	}
	rows, err := collect(op, ctx)
	return rows, len(rows), err
}

// Run is Drain with the result kept: it returns all result rows.
func Run(n plan.Node, ctx *Context) ([]types.Row, error) {
	rows, _, err := Drain(n, ctx, nil)
	return rows, err
}

// collect drains op and returns its rows, each copied once into one RowSet.
func collect(op Operator, ctx *Context) ([]types.Row, error) {
	var set RowSet
	if _, err := runOp(op, ctx, set.add); err != nil {
		return nil, err
	}
	return set.Rows(), nil
}

// runOp is the root drain: it opens op, pulls it to exhaustion into sink and
// closes it — also when Open fails, after which builds may still be held.
func runOp(op Operator, ctx *Context, sink RowSink) (int, error) {
	if err := op.Open(); err != nil {
		return 0, closeAfter(op, err)
	}
	return pull(op, ctx, sink)
}

// closeAfter closes op after err; a Close failure is joined onto the original
// error rather than discarded, so resource-release problems surface.
func closeAfter(op Operator, err error) error {
	if cerr := op.Close(); cerr != nil {
		err = errors.Join(err, cerr)
	}
	return err
}

// pull is the one drain loop: it hands each row of an opened op to sink
// before pulling again, and closes op. A non-nil ctx.Canceled is polled every
// cancelCheckRows rows.
func pull(op Operator, ctx *Context, sink RowSink) (int, error) {
	n := 0
	for {
		r, ok, err := op.Next()
		if err == nil && ok {
			n++
			if err = sink(r); err == nil && ctx != nil && ctx.Canceled != nil && n%cancelCheckRows == 0 && ctx.Canceled() {
				err = ErrCanceled
			}
		}
		if err != nil {
			return n, closeAfter(op, err)
		}
		if !ok {
			return n, op.Close()
		}
	}
}
