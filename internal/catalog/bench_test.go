package catalog_test

import (
	"runtime"
	"testing"

	"rqp/internal/workload"
)

// BenchmarkAnalyze is ANALYZE as the engine runs it under Columnar —
// statistics and the snapshot from one scan — on the two largest TPC-H-lite
// tables at the benchmark's scale. Read it with -benchmem: the bytes are what
// the utility costs the statements running beside it.
func BenchmarkAnalyze(b *testing.B) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"orders", "lineitem"} {
		t, _ := cat.Table(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cat.Analyze(t, 24, true)
			}
		})
	}
}

// BenchmarkCreateIndex builds the benchmark's indexes on the two largest
// TPC-H-lite tables at its scale: one non-unique over lineitem's order key,
// one unique over orders' key. Read it with -benchmem; retained-B/op is what
// each build keeps live once the collector has run, the tree's footprint.
func BenchmarkCreateIndex(b *testing.B) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, ix := range []struct {
		name, table, col string
		unique           bool
	}{{"lineitem_order", "lineitem", "l_orderkey", false}, {"orders_pk", "orders", "o_orderkey", true}} {
		b.Run(ix.name, func(b *testing.B) {
			b.ReportAllocs()
			var retained int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveBytes()
				b.StartTimer()
				built, err := cat.CreateIndex(nil, ix.table, ix.name, []string{ix.col}, ix.unique)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				retained += liveBytes() - before
				if err := cat.DropIndex(ix.table, ix.name); err != nil {
					b.Fatal(err)
				}
				built.Tree = nil // a dropped index stays listed: let its tree go
				b.StartTimer()
			}
			b.ReportMetric(float64(retained)/float64(b.N), "retained-B/op")
		})
	}
}

// liveBytes is the heap still reachable after a full collection.
func liveBytes() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
