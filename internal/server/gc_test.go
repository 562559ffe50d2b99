package server

import (
	"runtime"
	"testing"

	"rqp/internal/core"
	"rqp/internal/workload"
)

// TestAllocCeilingAcrossGC: a statement allocates no more right after
// garbage collections than it does without them, but for what a bare
// collection costs. The scratch statements reuse — the workers' morsel and
// block scratch, the heap's decode rows, the frame writers — is kept where no
// collection empties it; scratch kept in a sync.Pool came back through New
// and regrew after every collection, so a smaller live heap, collected more
// often, brought allocations back. Two shapes: the benchmark's wide orders
// scan through a session, and Q3 at DOP 2 with columnar scans and runtime
// filters.
func TestAllocCeilingAcrossGC(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates on its own schedule")
	}
	fast := core.DefaultConfig()
	fast.DOP, fast.Columnar, fast.RuntimeFilters = 2, true, true
	for _, c := range []struct {
		name, sql string
		cfg       core.Config
	}{
		{"wide orders scan", `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_totalprice >= 1000`, core.DefaultConfig()},
		{"Q3 at DOP 2, columnar, runtime filters", workload.PerturbTPCHQuery("Q3", 0), fast},
	} {
		srv, _ := serveTPCH(t, c.cfg)
		cl, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for _, ddl := range []string{"ANALYZE orders", "ANALYZE lineitem", "ANALYZE customer"} {
			if _, err := cl.Query(ddl); err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			if _, err := cl.Query(c.sql); err != nil {
				t.Fatal(err)
			}
		}
		collect := func() { runtime.GC(); runtime.GC() }
		for i := 0; i < 3; i++ {
			query() // the plan cache, the scratch and the buffers at their size
		}
		const runs = 20
		floor := testing.AllocsPerRun(runs, collect)
		plain := testing.AllocsPerRun(runs, query)
		after := testing.AllocsPerRun(runs, func() { collect(); query() })
		t.Logf("%s: %.0f allocations a statement, %.0f after two collections, which cost %.0f alone", c.name, plain, after, floor)
		if after > plain+floor {
			t.Errorf("%s: %.0f allocations after two collections, %.0f without and %.0f for the collections: scratch is lost to the collector", c.name, after, plain, floor)
		}
	}
}
