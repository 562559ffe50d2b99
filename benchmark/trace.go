package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/index"
	"rqp/internal/plan"
	"rqp/internal/server"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/wlm"
)

// span is one timed call into a layer. Spans of one statement share Stmt
// (its index in the traced round, numbered on across rounds). Parent is the
// span that causes this call when the engine runs the statement itself: the
// harness replays the pieces one after another from outside, so a child's
// interval lies after its parent's, not inside it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = none
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced run began
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, stmt, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: stmt, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// layerCounters are the counters the engine already keeps, read from outside.
type layerCounters [8]int64

const (
	cntHits = iota
	cntMisses
	cntUncacheable
	cntSpillRows
	cntRFDropped
	cntColSkipped
	cntColScanned
	cntQueued
)

func readCounters(in *instance) layerCounters {
	st, m := in.eng.Cache.Stats(), in.eng.Metrics
	queued, _, _ := in.eng.Cfg.Admission.QueueStats()
	return layerCounters{
		cntHits: int64(st.Hits), cntMisses: int64(st.Misses), cntUncacheable: int64(st.Uncacheable),
		cntSpillRows:  m.Counter("rqp_spill_rows_total").Value(),
		cntRFDropped:  m.Counter("rqp_filter_dropped_total").Value(),
		cntColSkipped: m.Counter("rqp_columnar_blocks_skipped").Value(),
		cntColScanned: m.Counter("rqp_columnar_blocks_scanned").Value(),
		cntQueued:     queued,
	}
}

// addDelta adds what the counters gained from before to after.
func (a *layerCounters) addDelta(before, after layerCounters) {
	for i := range a {
		a[i] += after[i] - before[i]
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// piece accumulates one layer call over the traced rounds.
type piece struct {
	ns     int64
	allocs uint64
	bytes  uint64
	calls  int
}

func (p *piece) us() float64      { return ratio(float64(p.ns)/1e3, float64(p.calls)) }
func (p *piece) perCall() float64 { return ratio(float64(p.allocs), float64(p.calls)) }

// timed calls fn for every statement of a round under one allocation
// bracket, one span per call, children of parent[i]. fn returns false for a
// failed call, which ends the round. ids and ns, when non-nil, receive each
// call's span id and duration.
func (p *piece) timed(tr *tracer, name string, n, stmt0 int, parent, ids []int, ns []int64, fn func(i int) bool) bool {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		par := 0
		if parent != nil {
			par = parent[i]
		}
		id := tr.begin(name, stmt0+i, par)
		ok := fn(i)
		d := tr.end(id).Nanoseconds()
		if !ok {
			return false
		}
		if ids != nil {
			ids[i] = id
		}
		if ns != nil {
			ns[i] = d
		}
		p.ns += d
		p.calls++
	}
	runtime.ReadMemStats(&m1)
	p.allocs += m1.Mallocs - m0.Mallocs
	p.bytes += m1.TotalAlloc - m0.TotalAlloc
	return true
}

// execMean is the mean Engine.Exec time over the statements, in µs.
func execMean(eng *core.Engine, stmts []stmt) (float64, error) {
	start := time.Now()
	for i := range stmts {
		if _, err := eng.Exec(stmts[i].SQL, stmts[i].Params...); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(stmts)), nil
}

// siblingMean builds an engine like the twin but under cfg, runs the
// statements once to fill its caches and returns execMean of a second run.
func siblingMean(opt *options, cfg core.Config, stmts []stmt) (float64, error) {
	eng, err := servedEngine(opt.scale, cfg)
	if err != nil {
		return 0, err
	}
	if _, err := execMean(eng, stmts); err != nil {
		return 0, err
	}
	return execMean(eng, stmts)
}

// tracedRun replays rounds of the workload with one client, timing from
// outside the public call each layer is entered through, and derives the
// per-layer metrics. End-to-end numbers never come from here.
func tracedRun(r *runner, opt *options) (map[string]float64, error) {
	w := r.w
	n := w.traceRound
	if n > len(r.base) {
		n = len(r.base)
	}
	if w.stateful {
		n -= n % htapCycle
	}
	round := r.base[:n]
	budget := time.Duration((opt.seconds - r.timed) * float64(time.Second))
	deadline := time.Now().Add(budget)

	// The twin is the workload's engine without a server in front: the
	// in-process side of the replay.
	twin, err := servedEngine(opt.scale, servedConfig(w))
	if err != nil {
		return nil, err
	}
	if !w.stateful {
		if _, err := execMean(twin, r.base); err != nil { // fill the twin's plan cache like the server's
			return nil, err
		}
	}

	tr := &tracer{t0: time.Now(), spans: make([]span, 0, 8*n)}
	var roundtrip, coreExec, parse, bind, optimize, run, compile piece
	byKind := map[string]*piece{kindInsert: {}, kindUpdate: {}, kindDelete: {}, kindAnalyze: {}}
	var untracedNS, units, selfNS float64
	var rowsExamined, rowsOut, pages int64
	var sample []types.Row // result rows for the wire codec microbenchmark

	for rounds := 0; rounds == 0 || (!w.stateful && time.Now().Before(deadline)); rounds++ {
		stmt0 := rounds * n
		// The same round twice over the wire: bare, then under spans. A
		// workload that writes needs the same starting state for each.
		if w.stateful {
			if err := r.fresh(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for i := range round {
			if _, err = r.in.clients[0].Query(round[i].SQL, round[i].Params...); err != nil {
				return nil, err
			}
		}
		untracedNS += float64(time.Since(t0).Nanoseconds())
		if w.stateful {
			if err := r.fresh(); err != nil {
				return nil, err
			}
		}
		roots := make([]int, n)
		if !roundtrip.timed(tr, "server.roundtrip", n, stmt0, nil, roots, nil, func(i int) bool {
			_, err = r.in.clients[0].Query(round[i].SQL, round[i].Params...)
			return err == nil
		}) {
			return nil, err
		}

		// The pieces, in process on the twin, each a child of core.exec.
		execIDs := make([]int, n)
		execNS := make([]int64, n)
		missed := make([]bool, n)
		results := make([]*core.Result, n)
		if !coreExec.timed(tr, "core.exec", n, stmt0, roots, execIDs, execNS, func(i int) bool {
			hits := twin.Cache.Stats().Hits
			results[i], err = twin.Exec(round[i].SQL, round[i].Params...)
			missed[i] = twin.Cache.Stats().Hits == hits
			return err == nil
		}) {
			return nil, err
		}
		for i, d := range execNS {
			units += results[i].Cost
			if len(sample) < 20000 {
				sample = append(sample, results[i].Rows...)
			}
			if k := byKind[round[i].Kind]; k != nil {
				k.ns += d
				k.calls++
			}
		}
		asts := make([]sql.Stmt, n)
		parseNS := make([]int64, n)
		if !parse.timed(tr, "sql.parse", n, stmt0, execIDs, nil, parseNS, func(i int) bool {
			asts[i], err = sql.Parse(round[i].SQL)
			return err == nil
		}) {
			return nil, err
		}
		if w.stateful {
			continue // reads replayed after the round would see its end state, not theirs
		}
		queries := make([]*plan.Query, n)
		bindNS := make([]int64, n)
		if !bind.timed(tr, "plan.bind", n, stmt0, execIDs, nil, bindNS, func(i int) bool {
			queries[i], err = plan.Bind(asts[i].(*sql.SelectStmt), twin.Cat)
			return err == nil
		}) {
			return nil, err
		}
		plans := make([]plan.Node, n)
		optNS := make([]int64, n)
		if !optimize.timed(tr, "opt.optimize", n, stmt0, execIDs, nil, optNS, func(i int) bool {
			plans[i], err = twin.Opt.Optimize(queries[i], round[i].Params)
			return err == nil
		}) {
			return nil, err
		}
		runNS := make([]int64, n)
		if !run.timed(tr, "exec.run", n, stmt0, execIDs, nil, runNS, func(i int) bool {
			ctx := exec.NewContext()
			ctx.Params = round[i].Params
			var rows []types.Row
			rows, err = exec.Run(plans[i], ctx)
			seq, rnd, _, examined := ctx.Clock.Counters()
			pages += seq + rnd
			rowsExamined += examined
			rowsOut += int64(max(len(rows), 1))
			return err == nil
		}) {
			return nil, err
		}
		if !compile.timed(tr, "core.compile", n, stmt0, nil, nil, nil, func(i int) bool {
			_, err = twin.Explain(round[i].SQL, round[i].Params...)
			return err == nil
		}) {
			return nil, err
		}
		// Self time by subtraction, statement by statement: what core adds
		// around one parse, one bind, the optimize it runs on a plan-cache
		// miss, and the operator run. The second parse and bind core asks
		// for on a miss therefore count as core's own time.
		for i := range execNS {
			selfNS += float64(execNS[i] - parseNS[i] - bindNS[i] - runNS[i])
			if missed[i] {
				selfNS -= float64(optNS[i])
			}
		}
	}

	stmts := float64(coreExec.calls)
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	out["sql.parse_us"], out["sql.parse_allocs"] = parse.us(), parse.perCall()
	out["plan.bind_us"], out["plan.bind_allocs"] = bind.us(), bind.perCall()
	out["opt.optimize_us"], out["opt.optimize_allocs"] = optimize.us(), optimize.perCall()
	out["core.compile_us"] = compile.us()
	out["core.exec_us"], out["core.exec_allocs"] = coreExec.us(), coreExec.perCall()
	out["core.us_per_unit"] = ratio(float64(coreExec.ns)/1e3, units)
	out["core.insert_us"] = byKind[kindInsert].us()
	out["core.update_us"] = byKind[kindUpdate].us()
	out["core.delete_us"] = byKind[kindDelete].us()
	out["core.analyze_ms"] = byKind[kindAnalyze].us() / 1e3
	out["exec.run_us"], out["exec.run_allocs"] = run.us(), run.perCall()
	out["exec.run_alloc_kb"] = ratio(float64(run.bytes)/1024, float64(run.calls))
	out["exec.rows_examined_per_result"] = ratio(float64(rowsExamined), float64(rowsOut))
	out["exec.pages_read_per_stmt"] = ratio(float64(pages), float64(run.calls))
	out["server.roundtrip_us"] = roundtrip.us()
	out["server.wire_self_us"] = roundtrip.us() - coreExec.us()
	out["bench.trace_overhead_ratio"] = ratio(float64(roundtrip.ns), untracedNS)
	if w.defaultCfg {
		self := selfNS / 1e3 / stmts
		out["core.self_us"] = self
		// The pieces sum to the round trip by construction unless a self
		// time came out negative; report how much is then unaccounted for.
		sum := 0.0
		for _, v := range []float64{out["server.wire_self_us"], self, coreExec.us() - self} {
			sum += max(v, 0)
		}
		out["bench.pieces_residual_ratio"] = ratio(sum-roundtrip.us(), roundtrip.us())
	}

	// Ratios against sibling engines on the same statements.
	if !w.stateful {
		base, err := execMean(twin, round)
		if err != nil {
			return nil, err
		}
		cfg := servedConfig(w)
		cfg.TraceAll = true
		withTrace, err := siblingMean(opt, cfg, round)
		if err != nil {
			return nil, err
		}
		out["obs.trace_overhead_ratio"] = ratio(withTrace, base)
		if !w.defaultCfg {
			cfg := core.DefaultConfig()
			cfg.Admission = wlm.NewAdmitter(admissionMPL)
			rowUS, err := siblingMean(opt, cfg, round)
			if err != nil {
				return nil, err
			}
			out["exec.cfg_vs_row_ratio"] = ratio(base, rowUS)
		}
	}

	// Counters and pooled figures of the timed passes.
	c := r.counters
	out["core.plancache_hit_ratio"] = ratio(float64(c[cntHits]), float64(c[cntHits]+c[cntMisses]+c[cntUncacheable]))
	out["storage.col_blocks_skipped_ratio"] = ratio(float64(c[cntColSkipped]), float64(c[cntColSkipped]+c[cntColScanned]))
	out["wlm.queued_waits"] = float64(c[cntQueued])
	var pooled, qps []float64
	var gcCycles, gcPause, timedStmts, timedSecs float64
	for _, ps := range r.passes {
		pooled = append(pooled, ps.LatMS...)
		qps = append(qps, float64(ps.Statements)/ps.Seconds)
		gcCycles += float64(ps.GCCycles)
		gcPause += float64(ps.GCPauseNS) / 1e6
		timedStmts += float64(ps.Statements)
		timedSecs += ps.Seconds
	}
	sort.Float64s(pooled)
	out["server.lat_p99_ms"] = quantile(pooled, 0.99)
	out["exec.spill_rows"] = ratio(float64(c[cntSpillRows]), timedStmts)
	out["exec.rf_rows_dropped"] = ratio(float64(c[cntRFDropped]), timedStmts)
	out["bench.gc_cycles_per_kstmt"] = ratio(1000*gcCycles, timedStmts)
	out["bench.gc_pause_ms_per_s"] = ratio(gcPause, timedSecs)
	out["bench.pass_spread_qps"] = spread(qps)
	out["bench.reference_s"] = r.refS

	// A quarter of a percent of the run for each of the nine microbenchmarks.
	microbench(out, twin.Cat, w.mainTable, sample, opt.seed, time.Duration(opt.seconds*float64(time.Second))/400)
	return out, writeJSON(filepath.Join(opt.outdir, "trace-"+w.name+".json"), tr.spans)
}

// microbench times the leaf layers directly: storage, index, catalog
// maintenance, the row codec and the admission gate. Every figure is the
// mean over as many repetitions as fit in floor.
func microbench(out map[string]float64, cat *catalog.Catalog, mainTable string, sample []types.Row, seed int64, floor time.Duration) {
	// nsPer repeats fn, which does units of work per call, and returns ns per unit.
	nsPer := func(units int, fn func()) float64 {
		calls, t0 := 0, time.Now()
		for calls == 0 || time.Since(t0) < floor {
			fn()
			calls++
		}
		return ratio(float64(time.Since(t0).Nanoseconds()), float64(calls*units))
	}
	t, _ := cat.Table(mainTable)
	rows := int(t.Heap.NumRows())

	out["storage.heap_scan_ns_row"] = nsPer(rows, func() {
		t.Heap.Scan(nil, func(storage.RID, types.Row) bool { return true })
	})
	out["catalog.analyze_ms"] = nsPer(1, func() { cat.AnalyzeTable(t, core.DefaultConfig().HistBuckets) }) / 1e6
	var cs *storage.ColumnStore
	out["storage.col_build_ms"] = nsPer(1, func() { cs = cat.BuildColumnar(t, storage.DefaultColBlock) }) / 1e6
	dst := make([]types.Value, cs.BlockSize())
	out["storage.col_decode_ns_val"] = nsPer(rows*cs.NumCols(), func() {
		for col := 0; col < cs.NumCols(); col++ {
			for b := 0; b < cs.NumBlocks(); b++ {
				cs.Decode(col, b, dst[:cs.BlockRows(b)])
			}
		}
	})
	out["storage.col_bytes_per_raw_byte"] = ratio(float64(cs.EncodedBytes()), float64(cs.RawBytes()))

	orders, _ := cat.Table("orders")
	pk := orders.IndexNamed("orders_pk").Tree
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]types.Value, 4096)
	for i := range keys {
		keys[i] = []types.Value{types.Int(rng.Int63n(int64(pk.Len())))}
	}
	out["index.lookup_ns"] = nsPer(len(keys), func() {
		for _, k := range keys {
			pk.Lookup(nil, k, func(index.Entry) bool { return true })
		}
	})
	out["index.insert_ns"] = nsPer(pk.Len(), func() {
		fresh := index.New(1)
		for i := 0; i < pk.Len(); i++ {
			fresh.Insert([]types.Value{types.Int(int64(i))}, storage.MakeRID(i/64, i%64))
		}
	})

	if len(sample) > 0 {
		var wire bytes.Buffer
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, r := range sample {
			server.WriteFrame(&wire, server.MsgRow, server.RowMsg{Values: r}.Encode())
		}
		runtime.ReadMemStats(&m1)
		frames := wire.Bytes()
		out["server.bytes_per_row"] = float64(len(frames)) / float64(len(sample))
		out["server.row_encode_allocs_row"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(sample))
		out["server.row_encode_ns_row"] = nsPer(len(sample), func() {
			for _, r := range sample {
				server.WriteFrame(io.Discard, server.MsgRow, server.RowMsg{Values: r}.Encode())
			}
		})
		out["server.row_decode_ns_row"] = nsPer(len(sample), func() {
			rd := bytes.NewReader(frames)
			for range sample {
				f, err := server.ReadFrame(rd, 1<<20)
				if err == nil {
					_, err = server.DecodeRow(f.Payload)
				}
				if err != nil {
					panic(fmt.Sprintf("benchmark: a row frame the server package wrote does not read back: %v", err))
				}
			}
		})
	}

	gate := wlm.NewAdmitter(admissionMPL)
	out["wlm.admit_ns"] = nsPer(1000, func() {
		for i := 0; i < 1000; i++ {
			gate.TryAdmit()
			gate.Done()
		}
	})
}
