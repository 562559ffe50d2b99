// Package core provides the public engine facade: open a database, run DDL
// and DML, execute queries under a selectable robustness configuration
// (classic, robust estimation, POP progressive re-optimization, Rio
// bounding boxes), EXPLAIN plans and collect execution feedback.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"rqp/internal/adaptive"
	"rqp/internal/catalog"
	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/spare"
	"rqp/internal/sql"
	"rqp/internal/stats"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/wlm"
)

// ExecPolicy selects the execution strategy for SELECTs.
type ExecPolicy uint8

// Execution policies.
const (
	PolicyClassic  ExecPolicy = iota // optimize once, run the plan
	PolicyPOP                        // progressive re-optimization (checked)
	PolicyPOPEager                   // re-optimize at every materialization
	PolicyRio                        // bounding-box robust plan choice
)

// String names the policy.
func (p ExecPolicy) String() string {
	switch p {
	case PolicyClassic:
		return "classic"
	case PolicyPOP:
		return "pop"
	case PolicyPOPEager:
		return "pop-eager"
	case PolicyRio:
		return "rio"
	}
	return "?"
}

// Plan plans a bound SELECT under p with o: Rio's bounding-box choice under
// PolicyRio, returned with the plan, and o's plan (choice nil) otherwise —
// POP's compile-time plan included.
func (p ExecPolicy) Plan(o *opt.Optimizer, bq *plan.Query, params []types.Value) (plan.Node, *adaptive.RioChoice, error) {
	if p != PolicyRio {
		root, err := o.Optimize(bq, params)
		return root, nil, err
	}
	root, c, err := (&adaptive.Rio{Opt: o}).Choose(bq, params)
	return root, &c, err
}

// Progressive is the executor that runs a SELECT under p with o: POP's
// checked or eager re-optimization, and nil under a policy that runs the one
// plan Plan returns.
func (p ExecPolicy) Progressive(o *opt.Optimizer) *adaptive.Progressive {
	switch p {
	case PolicyPOP:
		return &adaptive.Progressive{Opt: o, Policy: adaptive.Checked}
	case PolicyPOPEager:
		return &adaptive.Progressive{Opt: o, Policy: adaptive.Eager}
	}
	return nil
}

// ParsePolicy is the inverse of ExecPolicy.String.
func ParsePolicy(name string) (ExecPolicy, error) {
	for p := PolicyClassic; p <= PolicyRio; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// Config tunes the engine.
type Config struct {
	// Options are the optimizer's: Attach hands them to it whole, and
	// MemBudgetRows also sizes each query's workspace broker. Under Columnar
	// Attach builds a columnar snapshot (dictionary/RLE/bit-packed blocks
	// with zone maps) of every catalog table, the optimizer may choose
	// ColScan where it is cheaper, and executed plans decode only referenced
	// columns. DML leaves a table's snapshot standing (scans read the pages
	// written since from the heap); ANALYZE rebuilds it.
	opt.Options
	Policy      ExecPolicy
	LEO         bool // learn from every execution
	HistBuckets int
	// AutoAnalyze refreshes a table's statistics (and drops the cached plans
	// that read it) before a query when modifications since the last ANALYZE
	// exceed autoAnalyzeFraction of the analyzed row count — the automatic
	// maintenance whose side effects the report's opening anecdote warns
	// about (and experiment E21 reproduces).
	AutoAnalyze bool
	// TraceAll attaches a tracer to every executed SELECT so Result.Trace
	// carries the span tree and events (EXPLAIN ANALYZE always traces,
	// independent of this switch).
	TraceAll bool
	// Admission, when non-nil, gates top-level SELECTs (EXPLAIN ANALYZE
	// too) through a workload-management multiprogramming limit. At a full
	// gate one whose ExecStream sink is an AdmissionQueue waits FIFO, in
	// lifecycle phase queued; others fail fast. Rejections are counted in
	// the metrics registry.
	Admission *wlm.Admitter
	// MemSchedule, when non-nil, injects memory pressure: the per-query
	// broker re-reads its budget from the schedule at every grant, so the
	// workspace can shrink (or oscillate) while operators are mid-flight
	// and their hash tables and sort runs spill instead of failing.
	MemSchedule wlm.MemorySchedule
	// MemPoolRows, with Admission set, makes concurrently running queries
	// share one workspace pool: each query's broker is attached on entry
	// and detached on exit, and every arrival reclaims budget from the
	// queries already running (equal shares).
	MemPoolRows int
	// DOP is the degree of parallelism for SELECT execution: how many
	// workers drain each morsel pipeline (0 and 1 mean one, negative one per
	// core). When Admission is set, the granted DOP additionally shrinks
	// with concurrent load.
	DOP int
	// RuntimeFilters enables runtime join filters: inner hash joins derive
	// Bloom + min/max filters from their build side and push them sideways
	// into probe-side scans, which drop never-joining rows before full
	// per-row cost. Filters adaptively disable themselves when observed
	// selectivity is too low to pay for the membership tests, so the worst
	// case stays near the unfiltered plan. Results are identical either way.
	RuntimeFilters bool
	// Shards partitions SELECT execution across N logical shard "nodes"
	// (goroutine-backed, network-transparent later): every hash join is
	// planned with a shuffle exchange — co-located, hash-repartition, or
	// broadcast — and each shard runs the full local operator stack on its
	// own child clock. Results and total simulated cost are byte- and
	// integer-identical to serial execution at any shard count; the cost of
	// rows crossing shards accumulates in a separate overhead domain
	// surfaced as Result.Record.Shuffle. 0 or 1 disables sharding.
	Shards int
	// ShuffleForce overrides the costed broadcast-vs-repartition choice:
	// plan.ShuffleRepartition or plan.ShuffleBroadcast forces that exchange
	// for every sharded join. The zero value, plan.ShuffleNone, keeps the
	// planner's costed choice (co-location wins where eligible).
	ShuffleForce plan.ShuffleMode
	// ShardNoHotSplit disables skew handling: heavy-hitter build keys are
	// not split across shards even when per-shard row counters detect a
	// hot shard. Used by benchmarks to measure the skew cliff.
	ShardNoHotSplit bool
	// ShuffleTransport, when non-nil, carries sharded joins' exchanges —
	// e.g. the server package's TCP transport to shard worker processes.
	// Nil keeps the in-process transport=local fast path. Results and
	// main-clock cost are identical either way; only the wire-accounting
	// side domain (frames, bytes, stalls) differs.
	ShuffleTransport exec.ShuffleTransport
	// QueryLog, when non-nil, receives one structured record per completed
	// top-level query (plan fingerprint, cost, q-error geomean, peak memory,
	// spill/filter/reopt/admission counts) — obs.NewJSONLSink(file) gives
	// the standard JSONL query log.
	QueryLog obs.QuerySink
}

const (
	// autoAnalyzeFraction is the share of an analyzed table's rows that
	// modifications must exceed before AutoAnalyze refreshes it.
	autoAnalyzeFraction = 0.2
	// recentQueries sizes the lifecycle registry's completed-query ring
	// served by the /queries debug endpoint.
	recentQueries = 128
)

// DefaultConfig is the classic configuration.
func DefaultConfig() Config {
	return Config{Options: opt.DefaultOptions(), Policy: PolicyClassic, HistBuckets: 24}
}

// Engine is one database instance.
type Engine struct {
	Cat   *catalog.Catalog
	Opt   *opt.Optimizer
	Clock *storage.Clock
	Cfg   Config
	// Cache, when non-nil, serves classic-policy SELECTs, literal and
	// parameterised, from the statement cache (see PlanCache). DDL drops its
	// statements, ANALYZE the plans over the analyzed table.
	Cache *PlanCache
	// Metrics aggregates engine-wide counters, gauges and histograms
	// (queries by policy, re-optimizations, cache hit ratio, q-error and
	// cost distributions, memory overcommit). Expose() renders them in the
	// Prometheus text format.
	Metrics *obs.Registry
	// Lifecycle is the live query registry: every top-level SELECT gets an
	// ID and a phase (queued/admitted/running/spilling/…) on entry and a
	// slot in the completed-query ring on exit. The obs debug server's
	// /queries and /trace/{id} endpoints read from it.
	Lifecycle *obs.QueryRegistry

	// Handles of the plan-cache series every cached statement counts in,
	// kept from their first use on: finding one by name allocates more than
	// a key lookup's operators do. First use, not Attach, so that /metrics
	// lists a series from the statement that first counted in it.
	mCacheHits, mCacheMisses atomic.Pointer[obs.Counter]
	mCacheRatio              atomic.Pointer[obs.Gauge]
}

// handle returns the metric kept in p, resolving it on the first call.
func handle[T any](p *atomic.Pointer[T], resolve func() *T) *T {
	m := p.Load()
	if m == nil {
		m = resolve()
		p.Store(m)
	}
	return m
}

// Open creates an empty engine.
func Open(cfg Config) *Engine {
	cat := catalog.New()
	return Attach(cat, cfg)
}

// Attach wraps an existing catalog (e.g. a pre-built workload database).
func Attach(cat *catalog.Catalog, cfg Config) *Engine {
	o := opt.New(cat)
	o.Opt = cfg.Options
	if cfg.Columnar {
		for _, t := range cat.Tables() {
			cat.BuildColumnar(t, storage.DefaultColBlock)
		}
	}
	metrics := obs.NewRegistry()
	lifecycle := obs.NewQueryRegistry(recentQueries, metrics)
	if cfg.QueryLog != nil {
		lifecycle.SetSink(cfg.QueryLog)
	}
	return &Engine{
		Cat:       cat,
		Opt:       o,
		Clock:     storage.NewClock(storage.DefaultCostModel()),
		Cfg:       cfg,
		Metrics:   metrics,
		Lifecycle: lifecycle,
	}
}

// Result is a statement's outcome.
type Result struct {
	Columns []string
	Rows    []types.Row // nil when the rows went to an ExecStream sink
	// RowCount is the number of rows the SELECT produced, kept or streamed.
	RowCount int
	Affected int
	// Plan is the EXPLAIN / EXPLAIN ANALYZE text when requested, and the
	// executed plan with actual cardinalities for a SELECT whose rows were
	// kept (a streamed result has no reader for it and does not render it).
	Plan string
	// Cost (simulated cost units consumed), RowCount and Reopts (POP
	// re-optimizations) are the record's, for callers of every statement.
	Cost   float64
	Reopts int
	// Trace is the query's span tree and event log, present when the
	// statement was EXPLAIN ANALYZE or Config.TraceAll is set.
	Trace *obs.Trace
	// Record is a SELECT's record (nil for other statements): what it
	// executed, the one the metrics and the query log received. Its Shuffle
	// is set when a join ran through the sharded layer (Config.Shards > 1).
	Record *obs.QueryRecord
}

// selectResult is a SELECT's Result and its lifecycle state, which holds
// the record Result.Record points at, in one allocation.
type selectResult struct {
	Result
	state obs.QueryState
}

// ErrAdmissionRejected marks an execution error caused by the WLM gate
// turning the query away at its multiprogramming limit: at once, or when
// an AdmissionQueue's wait ran out. The statement never ran; service layers
// check for it with errors.Is to tell it from real statement failures.
var ErrAdmissionRejected = errors.New("admission rejected")

// RowSink consumes a SELECT's result while the plan is still producing it
// (ExecStream): no copy of the result is ever held by the engine.
type RowSink interface {
	// Columns announces the result's column names, once, when execution
	// starts. A statement that fails before that, or only explains its
	// plan, never announces them; Result.Columns always carries them.
	Columns(names []string)
	// Row is exec.RowSink: r is valid only until Row returns, and an error
	// stops the statement and is returned by ExecStream.
	Row(r types.Row) error
}

// AdmissionQueue is a RowSink whose statement waits for an admission slot
// (Config.Admission) instead of failing at a full gate. Its methods are
// called on the goroutine that called ExecStream.
type AdmissionQueue interface {
	// QueueWait bounds the wait; when it elapses the statement fails with
	// ErrAdmissionRejected.
	QueueWait() time.Duration
	// Queued is called once, when the statement starts to wait, with the
	// queue depth counting itself.
	Queued(depth int)
	// Admitted is called once the statement holds its slot, whether or not
	// it waited, before its rows.
	Admitted()
}

// Exec parses and executes one statement.
func (e *Engine) Exec(query string, params ...types.Value) (*Result, error) {
	return e.ExecStream(query, nil, nil, params...)
}

// ExecStream is Exec with a cooperative cancellation hook and the result
// delivered row by row. A non-nil canceled func is polled before execution
// and periodically at the root drain loop of SELECTs, and a true return
// aborts with exec.ErrCanceled; DDL/DML statements ignore it (they are
// short). A SELECT's rows go to sink as the plan root produces them and
// Result.Rows stays nil (a nil sink keeps them in Result.Rows, which is all
// Exec is). Everything else about the statement — admission, lifecycle,
// metrics, cost — is the same path. The network service layer encodes rows
// onto the socket through here, with client Cancel frames and disconnects
// arriving through canceled, which also ends an AdmissionQueue's wait.
// EXPLAIN, EXPLAIN ANALYZE and statements other than SELECT send no rows.
//
// With a plan cache, a SELECT whose text is cached skips the parser and the
// binder, and inside a cached plan's region the optimizer too: it goes from
// text to exec.Drain.
func (e *Engine) ExecStream(query string, canceled func() bool, sink RowSink, params ...types.Value) (*Result, error) {
	if e.cacheOn() {
		if cs := e.Cache.statement(query); cs != nil {
			q, _ := sink.(AdmissionQueue)
			return e.runSelectObserved(nil, cs, query, params, 0, false, canceled, sink, q)
		}
	}
	st, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.execStmt(st, query, params, canceled, sink)
}

// cacheOn reports whether SELECTs go through the plan cache: only the classic
// policy runs one static plan per execution.
func (e *Engine) cacheOn() bool {
	return e.Cache != nil && e.Cfg.Policy == PolicyClassic
}

// Explain returns the plan EXPLAIN query prints: the plan the SELECT would
// run under the engine's policy, without executing it.
func (e *Engine) Explain(query string, params ...types.Value) (string, error) {
	st, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	res, err := e.explain(st, params)
	if err != nil {
		return "", err
	}
	return res.Plan, nil
}

// explain plans a SELECT as its execution would — subqueries expanded,
// stale statistics refreshed, then Rio's robust choice under PolicyRio and
// the optimizer's plan otherwise (POP's compile-time plan) — and returns it
// without executing it. Any other statement is an error: explaining it must
// not run it.
func (e *Engine) explain(st sql.Stmt, params []types.Value) (*Result, error) {
	s, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT only")
	}
	if _, err := e.expandSubqueries(s, params, 0); err != nil {
		return nil, err
	}
	bq, err := plan.Bind(s, e.Cat)
	if err != nil {
		return nil, err
	}
	e.maybeAutoAnalyze(bq)
	root, _, err := e.Cfg.Policy.Plan(e.Opt, bq, params)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: bq.ProjNames, Plan: plan.Explain(root)}, nil
}

func (e *Engine) execStmt(st sql.Stmt, text string, params []types.Value, canceled func() bool, sink RowSink) (*Result, error) {
	q, _ := sink.(AdmissionQueue)
	switch s := st.(type) {
	case *sql.ExplainStmt:
		if s.Analyze {
			sel, ok := s.Inner.(*sql.SelectStmt)
			if !ok {
				return nil, fmt.Errorf("core: EXPLAIN ANALYZE supports SELECT only")
			}
			return e.explainAnalyze(sel, params, canceled, q)
		}
		return e.explain(s.Inner, params)
	case *sql.SelectStmt:
		return e.runSelectObserved(s, nil, text, params, 0, false, canceled, sink, q)
	case *sql.CreateTableStmt:
		e.invalidatePlans()
		return e.execCreateTable(s)
	case *sql.CreateIndexStmt:
		e.invalidatePlans()
		if _, err := e.Cat.CreateIndex(e.Clock, s.Table, s.Name, s.Cols, s.Unique); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropTableStmt:
		e.invalidatePlans()
		if err := e.Cat.DropTable(s.Table); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropIndexStmt:
		e.invalidatePlans()
		if err := e.Cat.DropIndex(s.Table, s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.AnalyzeStmt:
		t, ok := e.Cat.Table(s.Table)
		if !ok {
			return nil, fmt.Errorf("core: unknown table %q", s.Table)
		}
		e.analyze(t, e.Cfg.Columnar)
		return &Result{}, nil
	case *sql.InsertStmt:
		return e.execInsert(s, params)
	case *sql.DeleteStmt:
		return e.execDelete(s, params)
	case *sql.UpdateStmt:
		return e.execUpdate(s, params)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", st)
}

// maybeAutoAnalyze refreshes stale statistics for the tables a SELECT
// references, when automatic maintenance is enabled.
func (e *Engine) maybeAutoAnalyze(q *plan.Query) {
	if !e.Cfg.AutoAnalyze {
		return
	}
	refresh := func(t *catalog.Table) {
		base := t.Stats.RowCount
		if base < 50 {
			base = 50
		}
		if float64(t.ModCount()) > autoAnalyzeFraction*base {
			e.analyze(t, false)
		}
	}
	for _, r := range q.Rels {
		refresh(r.Table)
	}
	for _, lj := range q.LeftJoins {
		refresh(lj.Rel.Table)
	}
}

// analyze refreshes t's statistics and, when columnar is set, its snapshot,
// from one scan of the heap, then drops the cached plans of the statements
// that read t: they were chosen against the statistics just replaced.
func (e *Engine) analyze(t *catalog.Table, columnar bool) {
	e.Cat.Analyze(t, e.Cfg.HistBuckets, columnar)
	if e.Cache != nil {
		e.Cache.InvalidateTable(t)
	}
}

// invalidatePlans drops every cached statement after DDL.
func (e *Engine) invalidatePlans() {
	if e.Cache != nil {
		e.Cache.Invalidate()
	}
}

func (e *Engine) execCreateTable(s *sql.CreateTableStmt) (*Result, error) {
	schema := make(types.Schema, len(s.Cols))
	for i, c := range s.Cols {
		k, ok := types.KindFromName(c.Type)
		if !ok {
			return nil, fmt.Errorf("core: unknown type %q for column %q", c.Type, c.Name)
		}
		schema[i] = types.Column{Name: c.Name, Kind: k}
	}
	if _, err := e.Cat.CreateTable(s.Table, schema); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// explainAnalyze executes the SELECT under a tracer and renders the span
// tree annotated with actual rows, per-node q-error and cost consumed,
// followed by the engine-event log (re-optimizations, cache and memory and
// admission decisions). It is canceled, and waits for admission, as the
// caller's SELECT would.
func (e *Engine) explainAnalyze(sel *sql.SelectStmt, params []types.Value, canceled func() bool, q AdmissionQueue) (*Result, error) {
	res, err := e.runSelectObserved(sel, nil, "", params, 0, true, canceled, nil, q)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(res.Trace.Render())
	rec := res.Record
	fmt.Fprintf(&sb, "-- %d row(s), cost %.2f units", rec.RowCount, rec.Cost)
	if rec.Reopts > 0 {
		fmt.Fprintf(&sb, ", %d reopt(s)", rec.Reopts)
	}
	sb.WriteByte('\n')
	res.Plan = sb.String()
	// Like EXPLAIN, the statement's visible output is the plan, not rows.
	res.Rows = nil
	res.Columns = nil
	return res, nil
}

// runSelectObserved runs one SELECT: s as parsed from text, or — s nil — the
// cached statement cs that text was found under. At depth 0 it takes an
// admission slot, waiting for one under q when q is non-nil.
func (e *Engine) runSelectObserved(s *sql.SelectStmt, cs *cachedStmt, text string, params []types.Value, depth int, forceTrace bool, canceled func() bool, sink RowSink, q AdmissionQueue) (*Result, error) {
	sr := &selectResult{}
	res, rec := &sr.Result, &sr.state.Record
	res.Record = rec
	ctx := exec.NewContext()
	ctx.Params = params
	ctx.Canceled = canceled
	if e.Cfg.MemBudgetRows > 0 {
		ctx.Mem = exec.NewMemBroker(e.Cfg.MemBudgetRows)
	}
	if e.Cfg.MemSchedule != nil {
		ctx.Mem.SetSchedule(e.Cfg.MemSchedule)
	}
	if forceTrace || e.Cfg.TraceAll {
		trace := obs.NewTrace(ctx.Clock)
		ctx.Trace = trace
		ctx.Mem.OnEvent = func(kind string, rows, inUse, budget int) {
			trace.Event("mem."+kind, fmt.Sprintf("rows=%d in_use=%d budget=%d", rows, inUse, budget))
		}
	}
	res.Trace = ctx.Trace
	if e.Cfg.LEO {
		adaptive.AttachLEO(ctx, e.Opt.Cards)
	}
	// Lifecycle registration: every top-level executing query gets an ID
	// and a phase in the live registry, and retires into the completed ring,
	// the metrics and the query log, if a sink is configured, on this
	// function's single exit path — bind and planning failures included.
	if depth == 0 {
		e.Lifecycle.Begin(&sr.state, ctx.Trace, text, e.Cfg.Policy.String())
	}
	err := e.runSelect(sr, ctx, s, cs, text, params, depth, sink, q)
	ctx.Record(rec)
	if err == nil {
		res.RowCount, res.Cost, res.Reopts = rec.RowCount, rec.Cost, rec.Reopts
		e.Clock.RowWork(int(res.Cost * 100)) // fold into the engine-lifetime clock
		if depth == 0 && ctx.Trace != nil {
			ctx.Trace.Summarize(rec)
		}
	}
	if depth == 0 {
		e.Lifecycle.Finish(&sr.state, err)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runSelect is runSelectObserved's statement: it binds, admits, plans and
// executes into ctx, and gives res the rows and what core adds to the
// record: rows, re-plans, admission, fingerprint and q-error.
func (e *Engine) runSelect(sr *selectResult, ctx *exec.Context, s *sql.SelectStmt, cs *cachedStmt, text string, params []types.Value, depth int, sink RowSink, q AdmissionQueue) error {
	var bq *plan.Query
	expanded := false
	if cs != nil {
		bq = cs.bq
	} else {
		var err error
		if expanded, err = e.expandSubqueries(s, params, depth); err != nil {
			return err
		}
		if bq, err = plan.Bind(s, e.Cat); err != nil {
			return err
		}
		// A frozen subquery result must never be served from the plan cache.
		if text != "" && !expanded && e.cacheOn() {
			cs = e.Cache.enter(text, bq)
			bq = cs.bq
		}
	}
	e.maybeAutoAnalyze(bq)
	res, rec, st := &sr.Result, &sr.state.Record, &sr.state
	trace, canceled := ctx.Trace, ctx.Canceled

	// Workload-management admission: top-level executing queries only, and
	// the one place a statement waits for its slot (in phase queued).
	if depth == 0 && e.Cfg.Admission != nil {
		var wait time.Duration
		var queued func(int)
		if q != nil {
			wait, queued = q.QueueWait(), q.Queued
		}
		d := e.Cfg.Admission.Admit(wait, canceled, queued)
		if trace != nil {
			trace.Event("wlm.admission", d.String())
		}
		if !d.Admitted {
			if canceled != nil && canceled() {
				return exec.ErrCanceled
			}
			st.SetPhase(obs.PhaseRejected)
			return fmt.Errorf("core: %w (%s)", ErrAdmissionRejected, d)
		}
		rec.Admissions = 1
		st.SetPhase(obs.PhaseAdmitted)
		defer e.Cfg.Admission.Done()
		if q != nil {
			q.Admitted()
		}
		if e.Cfg.MemPoolRows > 0 {
			e.Cfg.Admission.SetMemPool(e.Cfg.MemPoolRows)
			share := e.Cfg.Admission.AttachMem(ctx.Mem)
			defer e.Cfg.Admission.DetachMem(ctx.Mem)
			if trace != nil {
				trace.Event("wlm.mem", fmt.Sprintf("pool=%d share=%d", e.Cfg.MemPoolRows, share))
			}
		}
	}

	// Degree of parallelism: resolve the configured value, then let the
	// WLM gate scale it back under concurrent load. POP splices plans
	// mid-flight and runs them piecemeal, on one worker.
	prog := e.Cfg.Policy.Progressive(e.Opt)
	if dop := exec.ResolveDOP(e.Cfg.DOP); dop > 1 && prog == nil {
		if e.Cfg.Admission != nil {
			dop = e.Cfg.Admission.GrantDOP(dop)
		}
		ctx.DOP = dop
	}

	res.Columns = bq.ProjNames
	var rowSink exec.RowSink // nil: exec.Drain keeps the rows for res.Rows
	if sink != nil {
		sink.Columns(res.Columns)
		rowSink = sink.Row
	}
	// The record's q-error is the geometric mean over the executed plan's
	// nodes (POP: its checkpoints); a top-level statement's are observed
	// into rqp_qerror too.
	logSum, nq := 0.0, 0
	qerr := func(q float64) {
		if depth == 0 {
			e.Metrics.Histogram("rqp_qerror", obs.QErrorBuckets).Observe(q)
		}
		logSum += math.Log(q)
		nq++
	}

	st.SetPhase(obs.PhaseRunning)
	if prog != nil {
		pres, err := prog.ExecuteInto(bq, ctx, rowSink)
		if err != nil {
			return err
		}
		res.Rows, rec.RowCount, rec.Reopts = pres.Rows, pres.RowCount, pres.Reopts
		for _, c := range pres.Checks {
			qerr(stats.QError(c.Estimated, c.Actual))
		}
	} else {
		var root plan.Node
		var marks PlanMarks
		var err error
		if cs != nil {
			v, hit, err := e.Cache.plan(e, cs, params)
			if err != nil {
				return err
			}
			root, marks, rec.Fingerprint = v.root, v.marks, v.fp
			e.countCacheLookup(hit, trace)
		} else {
			if expanded && text != "" && e.cacheOn() {
				e.Cache.uncacheable()
			}
			var choice *adaptive.RioChoice
			if root, choice, err = e.Cfg.Policy.Plan(e.Opt, bq, params); err != nil {
				return err
			}
			if choice != nil {
				if trace != nil {
					trace.Event("rio.choice",
						fmt.Sprintf("robust=%v regret=%.2f sig=%s", choice.Robust, choice.MaxRegret, choice.Sig))
				}
				e.Metrics.Counter("rqp_rio_choices_total", obs.L("robust", fmt.Sprintf("%v", choice.Robust))).Inc()
			}
			marks, rec.Fingerprint = e.markPlan(root), plan.Fingerprint(root)
		}
		e.armContext(ctx, root, marks)
		rows, n, err := exec.Drain(root, ctx, rowSink)
		if err != nil {
			return err
		}
		res.Rows, rec.RowCount = rows, n
		if sink == nil {
			res.Plan = plan.ExplainActual(root)
		}
		plan.Walk(root, func(n plan.Node) {
			p := n.Props()
			if act := p.ActualRows(); act >= 0 {
				qerr(stats.QError(p.EstRows, act))
			}
		})
	}
	if nq > 0 {
		rec.QErrorGeomean = math.Exp(logSum / float64(nq))
	}
	return nil
}

// countCacheLookup records one plan-cache lookup of a classic SELECT in the
// metrics and the trace.
func (e *Engine) countCacheLookup(hit bool, trace *obs.Trace) {
	if hit {
		handle(&e.mCacheHits, func() *obs.Counter { return e.Metrics.Counter("rqp_plan_cache_hits_total") }).Inc()
	} else {
		handle(&e.mCacheMisses, func() *obs.Counter { return e.Metrics.Counter("rqp_plan_cache_misses_total") }).Inc()
	}
	if trace != nil {
		if hit {
			trace.Event("plancache.hit", "")
		} else {
			trace.Event("plancache.miss", "")
		}
	}
	st := e.Cache.Stats()
	handle(&e.mCacheRatio, func() *obs.Gauge { return e.Metrics.Gauge("rqp_plan_cache_hit_ratio") }).
		Set(float64(st.Hits) / float64(st.Hits+st.Misses))
}

// PlanMarks is what the marking passes annotated on one plan: the counts
// every execution of it reports and arms its context by.
type PlanMarks struct {
	rfSites  int // runtime join filters planted
	rfCredit float64
	shuffles int // hash joins given a shuffle mode
}

// MarkPlan annotates a freshly optimized plan for every execution mode the
// configuration enables: runtime join filter sites with their cost credit,
// and shuffle exchanges; then, filters planted, the columns each heap scan
// decodes (plan.MarkDecode). (Which columns a scan emits is not a mark: the
// optimizer built the plan narrow; how many workers drain it is the
// context's DOP.) The passes write to the tree, so they run exactly once per
// plan, while it is still private: the plan cache publishes a plan only after
// this, and executions — concurrent sessions sharing a cached tree — only read
// the annotations. POP/progressive plans never pass through here:
// re-optimization splices plans mid-flight, so those paths stay on one worker.
func MarkPlan(o *opt.Optimizer, cfg Config, root plan.Node) PlanMarks {
	var m PlanMarks
	if cfg.RuntimeFilters {
		m.rfSites, m.rfCredit = o.CreditRuntimeFilters(root)
	}
	if cfg.Shards > 1 {
		m.shuffles = opt.PlanShuffles(root, cfg.Shards, cfg.ShuffleForce)
	}
	plan.MarkDecode(root)
	return m
}

func (e *Engine) markPlan(root plan.Node) PlanMarks { return MarkPlan(e.Opt, e.Cfg, root) }

// ArmContext readies one execution's context for the modes its plan is
// marked for: a fresh runtime-filter set, the shard count and shuffle stats.
func ArmContext(ctx *exec.Context, cfg Config, m PlanMarks) {
	if cfg.RuntimeFilters && m.rfSites > 0 {
		ctx.RF = exec.NewRuntimeFilterSet(ctx.Trace)
	}
	if cfg.Shards > 1 && m.shuffles > 0 {
		ctx.Shards = cfg.Shards
		ctx.Shuffle = exec.NewShuffleStats(cfg.Shards)
		ctx.NoHotSplit = cfg.ShardNoHotSplit
		ctx.ShufTransport = cfg.ShuffleTransport
	}
}

// armContext arms one execution's context and records its modes in the
// trace and the metrics, with the DOP the WLM gate granted this execution.
func (e *Engine) armContext(ctx *exec.Context, root plan.Node, m PlanMarks) {
	ArmContext(ctx, e.Cfg, m)
	tr := ctx.Trace
	if ctx.DOP > 1 {
		if tr != nil {
			tr.Event("parallel.plan", fmt.Sprintf("dop=%d", ctx.DOP))
		}
		e.Metrics.Counter("rqp_parallel_queries_total").Inc()
	}
	if e.Cfg.Columnar && tr != nil {
		narrowed := 0
		plan.Walk(root, func(n plan.Node) {
			if sc, ok := n.(*plan.ScanNode); ok && sc.Cols != nil {
				narrowed++
			}
		})
		tr.Event("columnar.plan", fmt.Sprintf("narrowed=%d", narrowed))
	}
	if ctx.RF != nil {
		if tr != nil {
			tr.Event("rf.plan", fmt.Sprintf("sites=%d credit=%.2f", m.rfSites, m.rfCredit))
		}
		e.Metrics.Counter("rqp_filter_queries_total").Inc()
	}
	if ctx.Shuffle != nil {
		if tr != nil {
			tr.Event("shuffle.plan", fmt.Sprintf("shards=%d marked=%d force=%s", e.Cfg.Shards, m.shuffles, e.Cfg.ShuffleForce))
		}
		e.Metrics.Counter("rqp_shuffle_queries_total").Inc()
	}
}

func (e *Engine) execInsert(s *sql.InsertStmt, params []types.Value) (*Result, error) {
	t, ok := e.Cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", s.Table)
	}
	colIdx := make([]int, 0, len(s.Cols))
	if len(s.Cols) == 0 {
		for i := range t.Schema {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, cn := range s.Cols {
			ci := t.ColIndex(cn)
			if ci < 0 {
				return nil, fmt.Errorf("core: unknown column %q", cn)
			}
			colIdx = append(colIdx, ci)
		}
	}
	// Every row is assembled before the first is written, so that a row
	// that fails — to evaluate, or on a unique key — leaves the table as it
	// was. The heap and the indexes copy what they keep.
	buf := rowSpares.Get()
	defer putRows(buf)
	w := len(t.Schema)
	vals := slices.Grow((*buf)[:0], len(s.Rows)*w)[:len(s.Rows)*w]
	*buf = vals
	for r, exprRow := range s.Rows {
		if len(exprRow) != len(colIdx) {
			return nil, fmt.Errorf("core: INSERT row has %d values for %d columns", len(exprRow), len(colIdx))
		}
		row := vals[r*w : (r+1)*w]
		for i := range row {
			row[i] = types.Null()
		}
		for i, ast := range exprRow {
			bound, err := plan.BindExpr(ast, nil)
			if err != nil {
				return nil, err
			}
			v, err := bound.Eval(nil, params)
			if err != nil {
				return nil, err
			}
			row[colIdx[i]] = coerce(v, t.Schema[colIdx[i]].Kind)
		}
	}
	if err := e.Cat.InsertRows(e.Clock, t, vals); err != nil {
		return nil, err
	}
	return &Result{Affected: len(s.Rows)}, nil
}

// rowSpares are the rows DML decodes heap rows and assembles inserted rows
// in, kept from statement to statement.
var rowSpares spare.List[types.Row]

// maxSpareRow caps the values a kept row buffer holds: an INSERT of many
// rows should not pin its buffer forever.
const maxSpareRow = 1 << 10

// putRows keeps buf for the next statement, emptied, unless it outgrew
// maxSpareRow.
func putRows(buf *types.Row) {
	if cap(*buf) <= maxSpareRow {
		clear((*buf)[:cap(*buf)])
		rowSpares.Put(buf)
	}
}

// matchRows calls fn, in heap order, for every row of t that pred accepts
// (nil: every row), lent: valid until fn returns. A top-level conjunct `col =
// literal` or `col = ?` on the leading column of a live index makes the index
// name the candidates, each fetched and tested against the whole predicate;
// otherwise the heap is scanned, page by page. fn must not modify t.
func (e *Engine) matchRows(t *catalog.Table, pred expr.Expr, params []types.Value, fn func(storage.RID, types.Row) error) error {
	buf := rowSpares.Get()
	defer putRows(buf)
	var err error
	visit := func(rid storage.RID, r types.Row) bool {
		ok := pred == nil
		if !ok {
			ok, err = expr.EvalPredicate(pred, r, params)
		}
		if ok && err == nil {
			err = fn(rid, r)
		}
		return err == nil
	}
	for _, c := range expr.Conjuncts(pred) {
		iv, ok := expr.ExtractInterval(c, params)
		if !ok || !iv.HasEq || iv.NE {
			continue
		}
		ix := t.IndexOn(iv.Col)
		if ix == nil {
			continue
		}
		ix.Tree.Lookup(e.Clock, []types.Value{iv.Eq}, func(rid storage.RID) bool {
			var live bool
			*buf, live = t.Heap.Get(e.Clock, rid, (*buf)[:0])
			return !live || visit(rid, *buf)
		})
		return err
	}
	for p := 0; p < t.Heap.NumPages() && err == nil; p++ {
		t.Heap.ScanPage(e.Clock, p, nil, buf, visit)
	}
	return err
}

func (e *Engine) execDelete(s *sql.DeleteStmt, params []types.Value) (*Result, error) {
	t, ok := e.Cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", s.Table)
	}
	pred, err := e.bindRowPredicate(s.Where, t)
	if err != nil {
		return nil, err
	}
	var victims []storage.RID
	err = e.matchRows(t, pred, params, func(rid storage.RID, _ types.Row) error {
		victims = append(victims, rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rid := range victims {
		e.Cat.Delete(e.Clock, t, rid)
	}
	return &Result{Affected: len(victims)}, nil
}

func (e *Engine) execUpdate(s *sql.UpdateStmt, params []types.Value) (*Result, error) {
	t, ok := e.Cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %q", s.Table)
	}
	pred, err := e.bindRowPredicate(s.Where, t)
	if err != nil {
		return nil, err
	}
	type setter struct {
		col int
		e   expr.Expr
	}
	var setters []setter
	for _, cn := range s.Order {
		ci := t.ColIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("core: unknown column %q", cn)
		}
		bound, err := plan.BindExpr(s.Set[cn], t.Schema)
		if err != nil {
			return nil, err
		}
		setters = append(setters, setter{col: ci, e: bound})
	}
	// Every new row is computed, back to back in vals, before the first is
	// written: a unique key is checked against the whole statement.
	var rids []storage.RID
	var vals []types.Value
	err = e.matchRows(t, pred, params, func(rid storage.RID, r types.Row) error {
		off := len(vals)
		vals = append(vals, r...)
		nr := vals[off:]
		for _, st := range setters {
			v, err := st.e.Eval(r, params)
			if err != nil {
				return err
			}
			nr[st.col] = coerce(v, t.Schema[st.col].Kind)
		}
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := e.Cat.UpdateRows(e.Clock, t, rids, vals); err != nil {
		return nil, err
	}
	return &Result{Affected: len(rids)}, nil
}

func (e *Engine) bindRowPredicate(w sql.Expr, t *catalog.Table) (expr.Expr, error) {
	if w == nil {
		return nil, nil
	}
	return plan.BindExpr(w, t.Schema)
}

// coerce aligns a literal with the target column kind (ints into float or
// date columns, etc.).
func coerce(v types.Value, k types.Kind) types.Value {
	if v.IsNull() || v.K == k {
		return v
	}
	switch k {
	case types.KindFloat:
		if v.Numeric() {
			return types.Float(v.AsFloat())
		}
	case types.KindInt:
		if v.Numeric() {
			return types.Int(v.AsInt())
		}
	case types.KindDate:
		if v.Numeric() {
			return types.Date(v.AsInt())
		}
	}
	return v
}

// MustExec is Exec that panics on error — for examples and tests.
func (e *Engine) MustExec(query string, params ...types.Value) *Result {
	r, err := e.Exec(query, params...)
	if err != nil {
		panic(fmt.Sprintf("rqp: %v (query: %s)", err, strings.TrimSpace(query)))
	}
	return r
}
