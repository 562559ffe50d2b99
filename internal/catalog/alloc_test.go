package catalog_test

import (
	"runtime"
	"testing"

	"rqp/internal/workload"
)

// TestAllocCeilingAnalyze pins what ANALYZE orders allocates at the
// benchmark's scale, statistics and snapshot from one scan: 500 000 B (596 128
// before its statistics kept their numeric sort buffers from one ANALYZE to
// the next, as the snapshot build keeps its scratch) and 65 objects, however
// many processors there are to run its helper goroutine on.
func TestAllocCeilingAnalyze(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector moves allocations")
	}
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := cat.Table("orders")
	cat.Analyze(orders, 24, true)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cat.Analyze(orders, 24, true)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("ANALYZE orders: %d B in %d objects (%d GCs)", bytes, objects, after.NumGC-before.NumGC)
	if bytes > 500000 || objects > 65 {
		t.Errorf("ANALYZE orders: %d B in %d objects, ceilings 500 000 B and 65", bytes, objects)
	}
}
