package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"rqp/internal/core"
	"rqp/internal/server"
	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// ServerSweepPoint is one rung of the service-layer concurrency map: N
// closed-loop clients (think time between statements) running the mixed
// star workload through the wire protocol against one engine behind an
// MPL admission gate with a shared workspace-memory pool. Latency
// quantiles come from the raw per-statement latencies; they are wall-clock
// and therefore never gated by the regression harness. CostUnits is the
// deterministic simulated total — recorded only at Clients=1 where
// execution is sequential and reproducible, zero otherwise.
type ServerSweepPoint struct {
	Clients       int     `json:"clients" gate:"key"`          // concurrent closed-loop clients
	MPL           int     `json:"mpl"`                         // admission multiprogramming limit
	Queries       int     `json:"queries"`                     // statements completed across all clients
	QueuedWaits   int64   `json:"queued_waits"`                // admission-queue parks observed by the gate
	QueuedNotices int     `json:"queued_notices"`              // WLM_QUEUED notices received by clients
	AdmitTimeouts int     `json:"admit_timeouts" gate:"never"` // statements failed with ERR_ADMIT (should be 0)
	QPS           float64 `json:"qps"`                         // completed statements per wall-clock second
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	P999MS        float64 `json:"p999_ms"`
	MaxMS         float64 `json:"max_ms"`
	MeanCostUnits float64 `json:"mean_cost_units"`                 // mean simulated cost per statement (informational)
	CostUnits     float64 `json:"cost_units,omitempty" gate:"tol"` // deterministic total cost; only set at Clients=1
	ResultExact   bool    `json:"result_exact" gate:"never"`       // every result matched the in-process reference
}

// serverSweepThink is the closed-loop think time between a client's
// statements. Small, so sweeps stay fast; nonzero, so the workload is a
// think-time closed loop rather than a pure saturation blast.
const serverSweepThink = time.Millisecond

// serverSweepShards is the logical shard count the swept engine runs with:
// the PR 8 sharded executor is what a networked service fronts, and its
// shuffle exchanges make concurrent statements interleave for real.
const serverSweepShards = 4

// quantileMS picks the q-quantile from a sorted latency slice.
func quantileMS(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// serverSweepRun drives one client count against a fresh server+engine and
// folds the run into a point.
func serverSweepRun(sc workload.StarConfig, queries []workload.StarQuery, refs []uint64,
	clients, mpl, perClient int) (ServerSweepPoint, error) {
	p := ServerSweepPoint{Clients: clients, MPL: mpl, ResultExact: true}

	cat, err := workload.BuildStar(sc)
	if err != nil {
		return p, err
	}
	cfg := core.DefaultConfig()
	cfg.Admission = wlm.NewAdmitter(mpl)
	cfg.MemPoolRows = cfg.MemBudgetRows // running mix shares one workspace pool
	// Sharded execution gives each statement real goroutine/channel yield
	// points, so admitted statements overlap in wall time and the MPL gate
	// actually fills under concurrent load (on a single-core host a sub-ms
	// non-yielding statement would otherwise hold its slot alone).
	cfg.Shards = serverSweepShards
	eng := core.Attach(cat, cfg)
	eng.Cache = core.NewPlanCache(0)

	srv := server.New(server.Config{Engine: eng, QueueTimeout: 60 * time.Second})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return p, err
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr().String()

	var (
		mu        sync.Mutex
		latencies []float64
		costSum   float64
		queuedN   int
		timeouts  int
		completed int
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := server.Dial(addr)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer cl.Close()
			for j := 0; j < perClient; j++ {
				qi := (id + j) % len(queries)
				t0 := time.Now()
				rs, err := cl.Query(queries[qi].SQL)
				lat := float64(time.Since(t0).Microseconds()) / 1000.0
				mu.Lock()
				if err != nil {
					var se *server.ServerError
					if errors.As(err, &se) && se.Code == server.CodeAdmit {
						timeouts++
					} else if firstErr == nil {
						firstErr = fmt.Errorf("client %d q%d: %w", id, qi, err)
					}
					mu.Unlock()
					continue
				}
				latencies = append(latencies, lat)
				costSum += rs.CostUnits
				completed++
				for _, n := range rs.Notices {
					if n.Code == server.NoticeQueued {
						queuedN++
					}
				}
				p.ResultExact = p.ResultExact && types.HashRows(rs.Rows) == refs[qi]
				mu.Unlock()
				time.Sleep(serverSweepThink)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if firstErr != nil {
		return p, firstErr
	}

	sort.Float64s(latencies)
	p.Queries = completed
	p.QueuedNotices = queuedN
	p.AdmitTimeouts = timeouts
	p.QPS = float64(completed) / wall
	p.P50MS = quantileMS(latencies, 0.50)
	p.P99MS = quantileMS(latencies, 0.99)
	p.P999MS = quantileMS(latencies, 0.999)
	if n := len(latencies); n > 0 {
		p.MaxMS = latencies[n-1]
		p.MeanCostUnits = costSum / float64(n)
	}
	p.QueuedWaits, _, _ = cfg.Admission.QueueStats()
	if clients == 1 {
		// Sequential execution: the simulated total is deterministic and
		// safe for the regression gate to diff exactly.
		p.CostUnits = costSum
	}
	return p, nil
}

// serverSweepWorkload is the star database and the statement mix E29 serves
// at scale.
func serverSweepWorkload(scale float64) (workload.StarConfig, []workload.StarQuery) {
	sc := workload.DefaultStar()
	sc.FactRows = max(500, int(float64(sc.FactRows)*scale*0.2))
	sc.DimRows = max(200, int(float64(sc.DimRows)*scale*0.2))
	sc.Dim2Rows = max(100, int(float64(sc.Dim2Rows)*scale*0.2))
	return sc, workload.StarWorkload(sc, 8, 0.5, 42)
}

// ServerSweep runs the E29 concurrency sweep — client counts {1, MPL,
// 4×MPL} against a 4-MPL gate — and returns the report plus the raw points
// (for rqpbench -sweep server-sweep and the regression gate). The
// robustness claim under test: past the MPL the service layer queues
// rather than collapses — latency degrades by a bounded factor, throughput
// holds near its plateau, and not one statement returns a wrong result.
func ServerSweep(scale float64) (*Report, []ServerSweepPoint, error) {
	const mpl = 4
	sc, queries := serverSweepWorkload(scale)
	perClient := max(4, scaleInt(12, scale))

	// Reference results computed in-process on an identical catalog build —
	// the ground truth every wire result must match, row for row in order,
	// at every concurrency.
	refCat, err := workload.BuildStar(sc)
	if err != nil {
		return nil, nil, err
	}
	refEng := core.Attach(refCat, core.DefaultConfig())
	refs := make([]uint64, len(queries))
	for i, q := range queries {
		res, err := refEng.Exec(q.SQL)
		if err != nil {
			return nil, nil, fmt.Errorf("E29 reference q%d: %w", i, err)
		}
		refs[i] = types.HashRows(res.Rows)
	}

	var points []ServerSweepPoint
	for _, clients := range []int{1, mpl, 4 * mpl} {
		p, err := serverSweepRun(sc, queries, refs, clients, mpl, perClient)
		if err != nil {
			return nil, nil, fmt.Errorf("E29 clients=%d: %w", clients, err)
		}
		points = append(points, p)
	}

	r := newReport("E29", "server concurrency sweep (admission under closed-loop load)")
	r.Printf("%8s %4s %8s %8s %8s %8s %9s %9s %9s %9s %6s",
		"clients", "mpl", "queries", "queued", "timeout", "qps", "p50ms", "p99ms", "p999ms", "maxms", "exact")
	allExact := true
	var atMPL, at4xMPL ServerSweepPoint
	for _, p := range points {
		r.Printf("%8d %4d %8d %8d %8d %8.1f %9.2f %9.2f %9.2f %9.2f %6v",
			p.Clients, p.MPL, p.Queries, p.QueuedNotices, p.AdmitTimeouts,
			p.QPS, p.P50MS, p.P99MS, p.P999MS, p.MaxMS, p.ResultExact)
		if !p.ResultExact || p.AdmitTimeouts > 0 {
			allExact = false
		}
		if p.Clients == mpl {
			atMPL = p
		}
		if p.Clients == 4*mpl {
			at4xMPL = p
		}
	}
	r.Set("points", float64(len(points)))
	setReportBool(r, "all_exact", allExact)
	r.Set("qps_at_mpl", atMPL.QPS)
	r.Set("qps_at_4x_mpl", at4xMPL.QPS)
	if atMPL.P99MS > 0 {
		// The graceful-degradation headline: p99 past the MPL grows because
		// queue wait is added to service time — roughly the 4× offered-load
		// ratio — not because the system collapses.
		r.Set("p99_degradation_4x", at4xMPL.P99MS/atMPL.P99MS)
	}
	if at4xMPL.QPS > 0 && atMPL.QPS > 0 {
		r.Set("qps_retained_past_mpl", at4xMPL.QPS/atMPL.QPS)
	}
	setReportBool(r, "queueing_observed", at4xMPL.QueuedNotices > 0 || at4xMPL.QueuedWaits > 0)
	return r, points, nil
}
