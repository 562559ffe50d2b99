package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/stats"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// referenceColumnStats is the column statistics builder as it stood before
// ANALYZE read typed vectors: one map over every value for NDV, one per kind
// for the most-common values, a boxed copy of the column. It is the oracle
// stats.Analyze must match field for field.
func referenceColumnStats(kind types.Kind, vals []types.Value, buckets int) *stats.ColumnStats {
	cs := &stats.ColumnStats{Kind: kind, RowCount: float64(len(vals)), MinV: math.Inf(1), MaxV: math.Inf(-1)}
	var nums []float64
	strCounts := map[string]float64{}
	numCounts := map[int64]float64{}
	distinct := map[types.Value]bool{}
	for _, v := range vals {
		if v.IsNull() {
			cs.NullCount++
			continue
		}
		distinct[canonical(v)] = true
		if v.Numeric() {
			f := v.AsFloat()
			nums = append(nums, f)
			if f < cs.MinV {
				cs.MinV = f
			}
			if f > cs.MaxV {
				cs.MaxV = f
			}
			if f == math.Trunc(f) {
				numCounts[int64(f)]++
			}
		} else if v.K == types.KindString {
			strCounts[v.S]++
		}
	}
	cs.NDV = float64(len(distinct))
	if len(nums) > 0 {
		cs.Hist = stats.BuildHistogram(nums, buckets)
	}
	if len(strCounts) > 0 {
		cs.TopValues = topK(strCounts, 64, func(a, b string) bool { return a < b })
	}
	if len(numCounts) > 0 {
		cs.TopNums = topK(numCounts, 64, func(a, b int64) bool { return a < b })
	}
	return cs
}

func canonical(v types.Value) types.Value {
	if v.K == types.KindFloat && v.F == math.Trunc(v.F) {
		return types.Int(int64(v.F))
	}
	if v.K == types.KindDate {
		return types.Int(v.I)
	}
	return v
}

func topK[K comparable](m map[K]float64, k int, less func(a, b K) bool) map[K]float64 {
	type kv struct {
		k K
		v float64
	}
	all := make([]kv, 0, len(m))
	for s, c := range m {
		all = append(all, kv{s, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return less(all[i].k, all[j].k)
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make(map[K]float64, len(all))
	for _, e := range all {
		out[e.k] = e.v
	}
	return out
}

// columnStatsOf analyzes a one-column table holding vals.
func columnStatsOf(kind types.Kind, vals []types.Value, buckets int) *stats.ColumnStats {
	schema := types.Schema{{Name: "c", Kind: kind}}
	vecs := types.NewVectors(schema, len(vals))
	for _, v := range vals {
		vecs[0].Append(v)
	}
	return stats.Analyze(vecs, schema, buckets, nil).ColStats(0)
}

// generatedColumns are the shapes the sort-based builder could get wrong.
func generatedColumns() map[string][]types.Value {
	rng := rand.New(rand.NewSource(21))
	gen := func(n int, f func(i int) types.Value) []types.Value {
		out := make([]types.Value, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	zipf := rand.NewZipf(rng, 1.3, 1, 5000)
	return map[string][]types.Value{
		"empty":    nil,
		"all-null": gen(100, func(int) types.Value { return types.Null() }),
		"null-sprinkled": gen(3000, func(int) types.Value {
			if rng.Intn(5) == 0 {
				return types.Null()
			}
			return types.Int(rng.Int63n(300))
		}),
		"null-first": gen(50, func(i int) types.Value {
			if i == 0 {
				return types.Null()
			}
			return types.Float(float64(i) / 4)
		}),
		"integral floats and ints": gen(2000, func(i int) types.Value {
			if i%2 == 0 {
				return types.Float(float64(rng.Intn(100)))
			}
			return types.Int(rng.Int63n(100))
		}),
		"floats": gen(4000, func(int) types.Value { return types.Float(float64(rng.Intn(5000)) / 10) }),
		"negative zero": gen(10, func(i int) types.Value {
			return types.Float(math.Copysign(0, float64(i%2)-0.5))
		}),
		"dates":          gen(3000, func(int) types.Value { return types.Date(8000 + rng.Int63n(2400)) }),
		"dates and ints": gen(500, func(i int) types.Value { return types.Value{K: types.Kind(1 + 4*(i%2)), I: int64(i / 4)} }),
		"bools":          gen(64, func(i int) types.Value { return types.Bool(i%3 == 0) }),
		"bools, one value": gen(8, func(int) types.Value {
			return types.Bool(true)
		}),
		"many strings":     gen(5000, func(int) types.Value { return types.Str(fmt.Sprintf("s%04d", rng.Intn(700))) }),
		"strings and ints": gen(400, func(i int) types.Value { return []types.Value{types.Str("x"), types.Int(int64(i % 7))}[i%2] }),
		"zipf":             gen(20000, func(int) types.Value { return types.Int(int64(zipf.Uint64())) }),
		// 100 values, 60 of them seen three times and 40 twice: the 64th
		// most common is one of forty tied ones, the smallest four of which win.
		"ties at the 64th": gen(260, func(i int) types.Value {
			if i < 180 {
				return types.Int(int64(1000 - i%60))
			}
			return types.Int(int64(500 - (i-180)%40))
		}),
		"string ties at the 64th": gen(260, func(i int) types.Value {
			if i < 180 {
				return types.Str(fmt.Sprintf("k%03d", 900-i%60))
			}
			return types.Str(fmt.Sprintf("k%03d", 500-(i-180)%40))
		}),
		"ints beyond 2^53": gen(1000, func(i int) types.Value {
			return types.Int((1<<53 + int64(i%251) - 60) * int64(1-2*(i%2)))
		}),
		"ints and floats beyond 2^53": gen(600, func(i int) types.Value {
			if i%3 == 0 {
				return types.Float(float64(int64(1)<<55 + int64(i)*1024))
			}
			return types.Int(1<<55 + int64(i%100))
		}),
		"one value": gen(500, func(int) types.Value { return types.Int(7) }),
	}
}

func TestAnalyzeMatchesReference(t *testing.T) {
	check := func(name string, kind types.Kind, vals []types.Value, buckets int) {
		t.Helper()
		got := columnStatsOf(kind, vals, buckets)
		want := referenceColumnStats(kind, vals, buckets)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s (%d buckets): statistics differ from the reference\n got %+v hist %+v\nwant %+v hist %+v",
				name, buckets, got, got.Hist, want, want.Hist)
		}
	}
	for name, vals := range generatedColumns() {
		for _, buckets := range []int{1, 24, 100} {
			check(name, types.KindInt, vals, buckets)
		}
	}

	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	star, err := workload.BuildStar(workload.DefaultStar())
	if err != nil {
		t.Fatal(err)
	}
	shard, err := workload.BuildShardJoin(workload.DefaultShardJoin())
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []*catalog.Catalog{tpch, star, shard} {
		for _, tb := range cat.Tables() {
			cat.AnalyzeTable(tb, 24)
			cols := make([][]types.Value, len(tb.Schema))
			tb.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
				for c := range cols {
					cols[c] = append(cols[c], r[c])
				}
				return true
			})
			if tb.Stats.RowCount != float64(tb.Heap.NumRows()) {
				t.Errorf("%s: RowCount %v, heap holds %d", tb.Name, tb.Stats.RowCount, tb.Heap.NumRows())
			}
			for c, col := range tb.Schema {
				want := referenceColumnStats(col.Kind, cols[c], 24)
				if got := tb.Stats.ColStats(c); !reflect.DeepEqual(got, want) {
					t.Errorf("%s.%s: statistics differ from the reference\n got %+v\nwant %+v", tb.Name, col.Name, got, want)
				}
			}
		}
	}
}

// TestColumnStatsNaN: NaNs sort first and compare unequal to themselves, so
// each is a distinct value and none is the minimum — as the reference has it
// (DeepEqual cannot say so: NaN bounds never compare equal).
func TestColumnStatsNaN(t *testing.T) {
	vals := []types.Value{types.Float(math.NaN()), types.Float(2.5), types.Float(math.NaN()), types.Float(-1)}
	got := columnStatsOf(types.KindFloat, vals, 4)
	want := referenceColumnStats(types.KindFloat, vals, 4)
	if got.NDV != want.NDV || got.MinV != want.MinV || got.MaxV != want.MaxV || !reflect.DeepEqual(got.TopNums, want.TopNums) {
		t.Errorf("got NDV %v min %v max %v top %v, want %v %v %v %v",
			got.NDV, got.MinV, got.MaxV, got.TopNums, want.NDV, want.MinV, want.MaxV, want.TopNums)
	}
	all := columnStatsOf(types.KindFloat, vals[:1], 4)
	if !math.IsInf(all.MinV, 1) || !math.IsInf(all.MaxV, -1) {
		t.Errorf("all-NaN column: min %v max %v, want +Inf -Inf", all.MinV, all.MaxV)
	}
}
