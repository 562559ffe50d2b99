package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rqp/internal/core"
	"rqp/internal/server"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// admissionMPL and the never-revalidating plan cache match rqpserver's
// defaults, so the benchmark serves what a user of that binary gets.
const admissionMPL = 4

// dataSeed generates the catalog on every run. -seed drives what the
// clients send (keys, DML values, statement order), not the tables: with
// the data drawn from -seed too, the 14 distinct analytic statements take
// other times on every seed, and the median of a 20-level latency
// distribution jumps between levels (a quartile spread of 21% on
// analytic_fast's lat_p50_ms over ten seeds, on a quiet box).
const dataSeed = 1

// buildEngine is the part of set-up the oracle shares with the served
// engine: the TPC-H-lite catalog, the three indexes the lookups need,
// fresh statistics (and, under Columnar, fresh snapshots).
func buildEngine(scale float64, cfg core.Config) (*core.Engine, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: scale, Seed: dataSeed})
	if err != nil {
		return nil, err
	}
	eng := core.Attach(cat, cfg)
	for _, ddl := range []string{
		`CREATE UNIQUE INDEX orders_pk ON orders (o_orderkey)`,
		`CREATE UNIQUE INDEX customer_pk ON customer (c_custkey)`,
		`CREATE INDEX lineitem_order ON lineitem (l_orderkey)`,
		`ANALYZE orders`, `ANALYZE customer`, `ANALYZE lineitem`,
	} {
		if _, err := eng.Exec(ddl); err != nil {
			return nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	return eng, nil
}

// servedEngine is buildEngine plus the plan cache rqpserver attaches.
func servedEngine(scale float64, cfg core.Config) (*core.Engine, error) {
	eng, err := buildEngine(scale, cfg)
	if err != nil {
		return nil, err
	}
	eng.Cache = core.NewPlanCache(0)
	return eng, nil
}

// servedConfig is the workload's engine configuration as rqpserver would
// run it: behind the admission gate.
func servedConfig(w *workloadSpec) core.Config {
	cfg := w.cfg()
	cfg.Admission = wlm.NewAdmitter(admissionMPL)
	return cfg
}

// instance is one served engine with its connected clients.
type instance struct {
	eng     *core.Engine
	srv     *server.Server
	served  chan error
	clients []*server.Client
}

// setup builds the catalog, serves it on loopback and dials the workload's
// clients. Its wall time is the setup_s metric.
func setup(w *workloadSpec, scale float64) (*instance, float64, error) {
	if w.clients > runtime.NumCPU() {
		return nil, 0, fmt.Errorf("%s wants %d client connections on %d CPUs: a closed loop with more callers than cores measures the scheduler", w.name, w.clients, runtime.NumCPU())
	}
	start := time.Now()
	eng, err := servedEngine(scale, servedConfig(w))
	if err != nil {
		return nil, 0, err
	}
	in := &instance{eng: eng, srv: server.New(server.Config{Engine: eng}), served: make(chan error, 1)}
	if err := in.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, 0, err
	}
	go func() { in.served <- in.srv.Serve() }()
	for i := 0; i < w.clients; i++ {
		c, err := server.Dial(in.srv.Addr().String())
		if err != nil {
			in.close()
			return nil, 0, err
		}
		in.clients = append(in.clients, c)
	}
	return in, time.Since(start).Seconds(), nil
}

// close ends the sessions and waits for the accept loop to return.
func (in *instance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.Close()
	<-in.served
}

// reference is what the serial row-path oracle returned for one statement.
type reference struct {
	Rows uint64
	Tag  string
	Sum  uint64
	Cost float64
	// rows is kept where results are compared value by value instead of by
	// checksum: off the default configuration a parallel SUM adds floats in
	// another order than the serial oracle and differs in the last bits.
	rows []types.Row
}

// sameRows compares results in order, floats to a relative 1e-9.
func sameRows(got, want []types.Row) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, g := range got[i] {
			w := want[i][j]
			if g.K != w.K || g.I != w.I || g.S != w.S || math.Abs(g.F-w.F) > 1e-9*math.Abs(w.F) {
				return false
			}
		}
	}
	return true
}

// checksum is order-sensitive over every value of every row.
func checksum(rows []types.Row) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, r := range rows {
		for _, v := range r {
			b[0] = byte(v.K)
			switch v.K {
			case types.KindFloat:
				binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.F))
			default:
				binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
			}
			h.Write(b[:])
			h.Write([]byte(v.S))
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// refOf folds an in-process result into the shape the wire reports it in
// (docs/WIRE_PROTOCOL.md: statements without columns complete as OK with
// the affected count).
func refOf(res *core.Result) reference {
	ref := reference{Rows: uint64(len(res.Rows)), Tag: "SELECT", Sum: checksum(res.Rows), Cost: res.Cost}
	if res.Affected > 0 || len(res.Columns) == 0 {
		ref.Rows, ref.Tag = uint64(res.Affected), "OK"
	}
	return ref
}

// oracle is the reference side: an identical catalog under the default
// configuration, executed in process, serially, on the row path.
type oracle struct {
	refs []reference
	// prices is the orders table before any statement ran, for the
	// htap_mixed model (key -> o_totalprice), read straight off the heap.
	prices map[int64]float64
}

func buildOracle(w *workloadSpec, scale float64, base []stmt) (*oracle, error) {
	eng, err := buildEngine(scale, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	o := &oracle{refs: make([]reference, len(base))}
	if w.stateful {
		o.prices = map[int64]float64{}
		t, _ := eng.Cat.Table("orders")
		t.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
			o.prices[r[0].I] = r[3].F
			return true
		})
	}
	for i, s := range base {
		res, err := eng.Exec(s.SQL, s.Params...)
		if err != nil {
			return nil, fmt.Errorf("oracle: statement %d: %w", i, err)
		}
		o.refs[i] = refOf(res)
		if !w.defaultCfg {
			o.refs[i].rows = res.Rows
		}
	}
	return o, nil
}

// modelTotals replays the DML of stmts on the oracle's initial prices and
// returns the COUNT(*) and SUM(o_totalprice) the orders table must end with.
func (o *oracle) modelTotals(stmts []stmt) (int64, float64) {
	live := make(map[int64]float64, len(o.prices))
	for k, p := range o.prices {
		live[k] = p
	}
	for _, s := range stmts {
		switch s.Kind {
		case kindInsert, kindUpdate:
			live[s.key] = s.price
		case kindDelete:
			delete(live, s.key)
		}
	}
	keys := make([]int64, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sum := 0.0
	for _, k := range keys {
		sum += live[k]
	}
	return int64(len(live)), sum
}

// verify compares one wire result with its reference. Timed passes check
// row count and tag only; the warm-up round (full) also checks the
// checksum of every row and the exact cost on default-config workloads,
// and every value to float rounding on the others, whose cost rightly differs.
func verify(w *workloadSpec, s *stmt, rs *server.ResultSet, ref *reference, full bool) error {
	if rs.RowCount != ref.Rows || rs.Tag != ref.Tag {
		return fmt.Errorf("got %s %d, oracle %s %d", rs.Tag, rs.RowCount, ref.Tag, ref.Rows)
	}
	if s.model != nil {
		if len(rs.Rows) != s.model.rows {
			return fmt.Errorf("read-your-writes: got %d rows, model %d", len(rs.Rows), s.model.rows)
		}
		if s.model.rows == 1 && rs.Rows[0][3].F != s.model.price {
			return fmt.Errorf("read-your-writes: got price %v, model %v", rs.Rows[0][3].F, s.model.price)
		}
	}
	if !full {
		return nil
	}
	if !w.defaultCfg {
		if !sameRows(rs.Rows, ref.rows) {
			return fmt.Errorf("rows differ from the oracle's beyond float rounding")
		}
		return nil
	}
	if sum := checksum(rs.Rows); sum != ref.Sum {
		return fmt.Errorf("row checksum %x, oracle %x", sum, ref.Sum)
	}
	if rs.CostUnits != ref.Cost {
		return fmt.Errorf("cost %v units, oracle %v", rs.CostUnits, ref.Cost)
	}
	return nil
}

// passStats is what one pass measured.
type passStats struct {
	Statements int
	Failed     int
	FirstErr   string
	Seconds    float64
	LatMS      []float64 // one per statement, unsorted
	CPUMS      float64
	Mallocs    uint64
	AllocBytes uint64
	LiveHeap   uint64
	CostUnits  float64
	GCCycles   uint32
	GCPauseNS  uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clientPass is what one client saw during a pass.
type clientPass struct {
	latMS    []float64 // one per statement sent
	cost     float64
	failed   int
	firstErr string
}

// runClient sends per statements of base, starting at off and wrapping
// around, each when the previous reply is complete.
func runClient(w *workloadSpec, cl *server.Client, base []stmt, refs []reference, off, per int, full bool) clientPass {
	cp := clientPass{latMS: make([]float64, 0, per)}
	for j := 0; j < per; j++ {
		i := (off + j) % len(base)
		s := &base[i]
		t0 := time.Now()
		rs, err := cl.Query(s.SQL, s.Params...)
		d := time.Since(t0)
		cp.latMS = append(cp.latMS, float64(d.Nanoseconds())/1e6)
		if err == nil {
			cp.cost += rs.CostUnits
			err = verify(w, s, rs, &refs[i], full)
		}
		if err != nil {
			cp.failed++
			if cp.firstErr == "" {
				cp.firstErr = fmt.Sprintf("statement %d (%.60s): %v", i, s.SQL, err)
			}
			var se *server.ServerError
			if !errors.As(err, &se) && rs == nil {
				break // the connection is gone
			}
		}
	}
	cp.failed += per - len(cp.latMS) // statements never sent count as failed
	return cp
}

// runPass executes n statements in a closed loop with no think time.
// Client c walks base cyclically from offset c*len(base)/clients, so two
// sessions rarely run the same cached plan at the same moment.
func runPass(w *workloadSpec, in *instance, base []stmt, refs []reference, n int, full bool) passStats {
	clients := len(in.clients)
	per := n / clients
	runs := make([]clientPass, clients)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = runClient(w, in.clients[c], base, refs, c*len(base)/clients, per, full)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)

	ps := passStats{
		Statements: per * clients, Seconds: elapsed.Seconds(), CPUMS: float64((cpu1 - cpu0).Nanoseconds()) / 1e6,
		Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
		GCCycles: m1.NumGC - m0.NumGC, GCPauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	for _, cp := range runs {
		ps.LatMS = append(ps.LatMS, cp.latMS...)
		ps.CostUnits += cp.cost
		ps.Failed += cp.failed
		if ps.FirstErr == "" {
			ps.FirstErr = cp.firstErr
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	ps.LiveHeap = m1.HeapInuse
	return ps
}

// checkTotals runs the closing COUNT/SUM of a stateful pass against the
// harness's model. It reports one attempted statement and whether it failed.
func checkTotals(in *instance, o *oracle, stmts []stmt) error {
	rs, err := in.clients[0].Query(`SELECT COUNT(*), SUM(o_totalprice) FROM orders`)
	if err != nil {
		return err
	}
	wantN, wantSum := o.modelTotals(stmts)
	if len(rs.Rows) != 1 {
		return fmt.Errorf("closing totals: %d rows", len(rs.Rows))
	}
	gotN, gotSum := rs.Rows[0][0].I, rs.Rows[0][1].F
	if gotN != wantN || math.Abs(gotSum-wantSum) > 1e-9*math.Abs(wantSum) {
		return fmt.Errorf("closing totals: got count %d sum %.3f, model count %d sum %.3f", gotN, gotSum, wantN, wantSum)
	}
	return nil
}

// quantile picks the q-quantile of a sorted slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// bandMean is the mean of the samples between the lo- and hi-quantiles of
// a sorted slice: a percentile smoothed over a band around it. Every
// workload sends a few statement shapes at fixed shares, so its latencies
// sit on a few levels and a single order statistic lands on the edge
// between two of them as often as inside one; it then jumps from level to
// level between runs (24% quartile spread for the plain median of
// analytic_fast, 4-9% for its other timings).
func bandMean(sorted []float64, lo, hi float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	a, b := int(lo*float64(len(sorted)-1)+0.5), int(hi*float64(len(sorted)-1)+0.5)
	sum := 0.0
	for _, v := range sorted[a : b+1] {
		sum += v
	}
	return sum / float64(b-a+1)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max-min)/median: how far a metric's per-pass values lie apart.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if m := median(vals); m != 0 {
		return (hi - lo) / math.Abs(m)
	}
	return 0
}
