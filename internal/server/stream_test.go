package server

import (
	"testing"

	"rqp/internal/core"
	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// serveTPCH serves TPC-H-lite at scale 2 (12 000 lineitem rows) on loopback
// behind a 4-slot admission gate and with a plan cache, the way rqpserver
// does.
func serveTPCH(tb testing.TB, cfg core.Config) (*Server, *core.Engine) {
	tb.Helper()
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Admission = wlm.NewAdmitter(4)
	eng := core.Attach(cat, cfg)
	eng.Cache = core.NewPlanCache(0)
	srv := New(Config{Engine: eng})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	go srv.Serve()
	tb.Cleanup(func() { srv.Close() })
	return srv, eng
}

// dialTPCH is serveTPCH under the default configuration plus one client.
func dialTPCH(tb testing.TB) *Client {
	tb.Helper()
	srv, _ := serveTPCH(tb, core.DefaultConfig())
	c, err := Dial(srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

const (
	streamWideQuery = `SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice, l_discount, l_shipdate, l_returnflag FROM lineitem`
	streamOneQuery  = `SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice FROM orders WHERE o_orderkey = ?`
)

// Allocation ceilings of the result path, server and client together
// (testing.AllocsPerRun counts the whole process). A wide result allocates
// per slab, per buffer growth and per statement, never per row: the ratio
// sits an order of magnitude under its pin, and a per-row allocation coming
// back on either side of the socket (an Encode, a frame header, a payload,
// a value slice) breaks it at once. The one-row pin is what the same round
// trip cost (191) before results were streamed: small results must not pay for
// the large ones.
const (
	maxAllocsPerStreamedRow = 0.05
	maxAllocsOneRowStmt     = 191
)

func TestAllocCeilingResultStream(t *testing.T) {
	c := dialTPCH(t)
	query := func(sql string, want int, params ...types.Value) {
		rs, err := c.Query(sql, params...)
		if err != nil || len(rs.Rows) != want {
			t.Fatalf("%.40s: %d rows, %v (want %d)", sql, len(rs.Rows), err, want)
		}
	}
	const wideRows = 12000
	query(streamWideQuery, wideRows) // warm the plan cache and the buffers
	wide := testing.AllocsPerRun(5, func() { query(streamWideQuery, wideRows) })
	if perRow := wide / wideRows; perRow > maxAllocsPerStreamedRow {
		t.Errorf("%d-row result: %.0f allocations, %.4f per row (ceiling %.2f)", wideRows, wide, perRow, maxAllocsPerStreamedRow)
	}
	query(streamOneQuery, 1, types.Int(7))
	one := testing.AllocsPerRun(50, func() { query(streamOneQuery, 1, types.Int(7)) })
	if one > maxAllocsOneRowStmt {
		t.Errorf("one-row result: %.0f allocations per statement (ceiling %d)", one, maxAllocsOneRowStmt)
	}
	t.Logf("allocations per statement: %.0f for %d rows, %.0f for one row", wide, wideRows, one)
}

// BenchmarkResultStream is one wide SELECT per iteration over loopback:
// scan, encode, socket, decode. Its allocs/op is the whole result path's.
func BenchmarkResultStream(b *testing.B) {
	c := dialTPCH(b)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		rs, err := c.Query(streamWideQuery)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(rs.Rows)
	}
	b.ReportMetric(float64(rows), "rows/op")
}
