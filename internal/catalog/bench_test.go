package catalog_test

import (
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
