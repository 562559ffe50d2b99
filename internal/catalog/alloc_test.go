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

// TestAllocCeilingCreateIndex pins the benchmark's two largest index builds
// at its scale: the bytes each tree keeps live once the collector has run,
// and the objects the build allocates on the way. A tree keeps its keys
// packed beside their RIDs, 17 B an entry of one Int column, in two slabs
// (leaves, separators) and its nodes: 943 560 B for lineitem_order and
// 256 704 B for orders_pk, built from 2 243 and 797 objects, most of them
// the replay's nodes. When the keys were views of boxed heap rows the trees
// kept 1 688 968 B and 441 024 B; when CREATE INDEX copied boxed keys into
// an arena and inserted them one by one, 4 482 824 B and 1 415 152 B, from
// 3 291 and 1 208 objects.
func TestAllocCeilingCreateIndex(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector moves allocations")
	}
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, table, col        string
		unique                  bool
		maxRetained, maxObjects uint64
	}{
		{"lineitem_order", "lineitem", "l_orderkey", false, 1700000, 2300},
		{"orders_pk", "orders", "o_orderkey", true, 445000, 820},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix, err := cat.CreateIndex(nil, c.table, c.name, []string{c.col}, c.unique)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := after.HeapAlloc - before.HeapAlloc
		objects := after.Mallocs - before.Mallocs
		t.Logf("CREATE INDEX %s: keeps %d B, allocates %d objects", c.name, retained, objects)
		if retained > c.maxRetained || objects > c.maxObjects {
			t.Errorf("CREATE INDEX %s: keeps %d B and allocates %d objects, ceilings %d B and %d", c.name, retained, objects, c.maxRetained, c.maxObjects)
		}
		runtime.KeepAlive(ix)
	}
}
