package core

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rqp/internal/obs"
	"rqp/internal/wlm"
)

// TestLifecycleRecordsCompletedQueries: every top-level SELECT lands in the
// engine's completed-query ring with outcome, cost, and plan fingerprint.
func TestLifecycleRecordsCompletedQueries(t *testing.T) {
	e := newEngine(t)
	e.MustExec("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
	e.MustExec("SELECT salary FROM emp ORDER BY salary")

	recent := e.Lifecycle.Recent()
	if len(recent) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recent))
	}
	// Newest first.
	if !strings.Contains(recent[0].SQL, "ORDER BY salary") {
		t.Fatalf("recent[0] = %+v, want the ORDER BY query", recent[0])
	}
	for _, rec := range recent {
		if rec.Outcome != "done" {
			t.Fatalf("outcome = %q, want done: %+v", rec.Outcome, rec)
		}
		if rec.CostUnits <= 0 {
			t.Fatalf("cost not recorded: %+v", rec)
		}
		if rec.Fingerprint == "" {
			t.Fatalf("plan fingerprint missing: %+v", rec)
		}
		if rec.Rows <= 0 {
			t.Fatalf("rows not recorded: %+v", rec)
		}
	}
	// Same plan shape across runs hashes identically; different shape differs.
	again := e.MustExec("SELECT salary FROM emp ORDER BY salary")
	_ = again
	recent = e.Lifecycle.Recent()
	if recent[0].Fingerprint != recent[1].Fingerprint && recent[0].SQL == recent[1].SQL {
		t.Fatal("identical query must produce identical fingerprint")
	}
	if recent[0].Fingerprint == recent[2].Fingerprint {
		t.Fatalf("different plan shapes share fingerprint %q", recent[0].Fingerprint)
	}
}

// TestLifecycleFailedAndRejected: error exits and admission rejections get
// their own outcomes in the flight recorder.
func TestLifecycleFailedAndRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Admission = wlm.NewAdmitter(1)
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int)")
	e.MustExec("INSERT INTO t VALUES (1)")
	e.MustExec("ANALYZE t")

	if _, err := e.Exec("SELECT nosuch FROM t"); err == nil {
		t.Fatal("expected failure")
	}
	cfg.Admission.TryAdmit() // hold the only slot
	if _, err := e.Exec("SELECT a FROM t"); err == nil {
		t.Fatal("expected admission rejection")
	}
	cfg.Admission.Done()

	recent := e.Lifecycle.Recent()
	outcomes := map[string]int{}
	for _, rec := range recent {
		outcomes[rec.Outcome]++
	}
	if outcomes["rejected"] != 1 {
		t.Fatalf("outcomes = %v, want one rejected", outcomes)
	}
	if outcomes["failed"] != 1 {
		t.Fatalf("outcomes = %v, want one failed", outcomes)
	}
	for _, rec := range recent {
		if rec.Outcome == "failed" && rec.Error == "" {
			t.Fatalf("failed record lost its error: %+v", rec)
		}
	}
}

// TestLifecycleSpillStats: a spilling join's record carries the spill
// partition and row counts, and the query log sink sees the same record.
func TestLifecycleSpillStats(t *testing.T) {
	e := spillEngine(t, 100, 1)
	var logged []obs.QueryRecord
	e.Lifecycle.SetSink(obs.FuncSink(func(rec *obs.QueryRecord) {
		logged = append(logged, *rec)
	}))
	e.MustExec("SELECT bld.v, prb.w FROM bld JOIN prb ON bld.k = prb.k")
	if len(logged) != 1 {
		t.Fatalf("sink saw %d records, want 1", len(logged))
	}
	rec := logged[0]
	if rec.SpillParts < 1 || rec.SpillRows < 1 {
		t.Fatalf("spill stats not recorded: %+v", rec)
	}
	if rec.PeakMemRows < 1 {
		t.Fatalf("peak memory grant not recorded: %+v", rec)
	}
	if rec.Outcome != "done" {
		t.Fatalf("outcome = %q", rec.Outcome)
	}
}

// TestLifecycleConfigSinkWiring: Config.QueryLog reaches the registry.
func TestLifecycleConfigSinkWiring(t *testing.T) {
	n := 0
	cfg := DefaultConfig()
	cfg.QueryLog = obs.FuncSink(func(*obs.QueryRecord) { n++ })
	e := Open(cfg)
	e.MustExec("CREATE TABLE t (a int)")
	e.MustExec("INSERT INTO t VALUES (1)")
	e.MustExec("SELECT a FROM t")
	e.MustExec("SELECT a FROM t")
	e.MustExec("SELECT a FROM t")
	if n != 3 {
		t.Fatalf("query log saw %d records, want 3 (DDL/DML excluded)", n)
	}
	if got := len(e.Lifecycle.Recent()); got != 3 {
		t.Fatalf("completed-query ring holds %d, want 3", got)
	}
}

// TestLifecycleUnderParallelLoad is the -race exercise for the new
// observability paths: traced DOP-8 queries (morsel workers feeding span
// row counters and trace events, some spilling) run while concurrent
// pollers hammer the /queries and /metrics handlers.
func TestLifecycleUnderParallelLoad(t *testing.T) {
	e := spillEngine(t, 100, 8)
	e.Cfg.TraceAll = true
	mux := obs.NewDebugMux(e.Metrics, e.Lifecycle)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	sawActive := false
	var sawMu sync.Mutex
	for i := 0; i < 3; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := httptest.NewRecorder()
				mux.ServeHTTP(w, httptest.NewRequest("GET", "/queries", nil))
				var resp struct {
					Active []obs.ActiveQuery `json:"active"`
				}
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("/queries not JSON: %v", err)
					return
				}
				for _, aq := range resp.Active {
					if aq.Phase == "running" || aq.Phase == "spilling" {
						sawMu.Lock()
						sawActive = true
						sawMu.Unlock()
					}
				}
				w = httptest.NewRecorder()
				mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
				if w.Code != 200 {
					t.Errorf("/metrics status %d", w.Code)
					return
				}
			}
		}()
	}

	const rounds = 12
	for i := 0; i < rounds; i++ {
		r := e.MustExec("SELECT bld.k, COUNT(*) FROM bld JOIN prb ON bld.k = prb.k GROUP BY bld.k")
		if len(r.Rows) == 0 {
			t.Fatal("no rows under load")
		}
	}
	close(stop)
	pollers.Wait()

	_ = sawActive // timing-dependent; correctness is the ring + counters below
	recent := e.Lifecycle.Recent()
	if len(recent) != rounds {
		t.Fatalf("ring holds %d records, want %d", len(recent), rounds)
	}
	for _, rec := range recent {
		if rec.Outcome != "done" {
			t.Fatalf("outcome = %q under load: %+v", rec.Outcome, rec)
		}
	}
	if v := e.Metrics.Counter("rqp_queries_finished_total", obs.L("outcome", "done")).Value(); v != rounds {
		t.Fatalf("finished counter = %d, want %d", v, rounds)
	}
	if len(e.Lifecycle.Active()) != 0 {
		t.Fatal("queries left active")
	}
}
