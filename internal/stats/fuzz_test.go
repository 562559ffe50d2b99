package stats_test

import (
	"encoding/binary"
	"math"
	"reflect"
	"sort"
	"testing"

	"rqp/internal/stats"
	"rqp/internal/types"
)

// fuzzColumn reads data as 9-byte values, a tag byte and eight bytes of
// float64 or int64 bits, and cycles them to past the length from which
// SortFloats distributes by radix: every odd copy has its low bits flipped,
// so a copy is now an equal value, now a neighbour.
func fuzzColumn(data []byte) []types.Value {
	var vals []types.Value
	for ; len(data) >= 9; data = data[9:] {
		bits := binary.LittleEndian.Uint64(data[1:])
		switch data[0] % 4 {
		case 0:
			vals = append(vals, types.Float(math.Float64frombits(bits)))
		case 1:
			vals = append(vals, types.Int(int64(bits)))
		case 2:
			vals = append(vals, types.Date(int64(bits)))
		default:
			vals = append(vals, types.Null())
		}
	}
	n := len(vals)
	for j := n; n > 0 && j < 600; j++ {
		v, c := vals[j%n], uint64(j/n)
		if c%2 == 1 {
			switch v.K {
			case types.KindFloat:
				v.F = math.Float64frombits(math.Float64bits(v.F) ^ c)
			case types.KindInt, types.KindDate:
				v.I ^= int64(c)
			}
		}
		vals = append(vals, v)
	}
	return vals
}

// sameFloat is == but NaN equals NaN, whatever its payload.
func sameFloat(a, b float64) bool { return a == b || a != a && b != b }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameStats is reflect.DeepEqual on column statistics but for NaN, which
// equals NaN here (a NaN sorts first, so it can be a histogram's lower bound).
func sameStats(a, b *stats.ColumnStats) bool {
	if a.Kind != b.Kind || a.RowCount != b.RowCount || a.NullCount != b.NullCount || a.NDV != b.NDV ||
		!sameFloat(a.MinV, b.MinV) || !sameFloat(a.MaxV, b.MaxV) ||
		!reflect.DeepEqual(a.TopValues, b.TopValues) || !reflect.DeepEqual(a.TopNums, b.TopNums) {
		return false
	}
	if a.Hist == nil || b.Hist == nil {
		return a.Hist == b.Hist
	}
	return sameFloats(a.Hist.Bounds, b.Hist.Bounds) && sameFloats(a.Hist.Counts, b.Hist.Counts) &&
		sameFloats(a.Hist.Distinct, b.Hist.Distinct) && a.Hist.Total == b.Hist.Total
}

// FuzzColumnStats holds the radix sort to sort.Float64s — the same values in
// the same order but for the order of ±0 — and column statistics, of a float
// column, an integer one and one of mixed kinds, to the reference builder.
func FuzzColumnStats(f *testing.F) {
	seed := func(tag byte, bits ...uint64) []byte {
		var out []byte
		for _, b := range bits {
			out = append(out, tag)
			out = binary.LittleEndian.AppendUint64(out, b)
		}
		return out
	}
	f.Add(seed(0, math.Float64bits(math.Copysign(0, -1)), 0, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		0x7ff8000000000001, 0xfff0000000000003, 1, 0x800000000000000f, math.Float64bits(2.5), math.Float64bits(-1e300)))
	neg := func(i uint64) uint64 { return -i }
	f.Add(seed(1, 1<<53, 1<<53+1, neg(1<<53), neg(1<<53+1), 1<<63, 1<<63-1, 0, 7, 7))
	f.Add(append(seed(2, 8000, 8001, 1<<60), seed(3, 0, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		col := fuzzColumn(data)

		var nums []float64
		for _, v := range col {
			if v.Numeric() {
				nums = append(nums, v.AsFloat())
			}
		}
		got := append([]float64(nil), nums...)
		stats.SortFloats(got)
		want := append([]float64(nil), nums...)
		sort.Float64s(want)
		if !sameFloats(got, want) {
			t.Fatalf("SortFloats(%v) = %v, want %v", nums, got, want)
		}
		if gotBits, wantBits := bitCounts(got), bitCounts(want); !reflect.DeepEqual(gotBits, wantBits) {
			t.Fatalf("SortFloats(%v) is not a permutation: %v", nums, got)
		}

		floats := make([]types.Value, len(nums))
		ints := make([]types.Value, len(col))
		for i, x := range nums {
			floats[i] = types.Float(x)
		}
		for i, v := range col {
			ints[i] = types.Int(v.I)
			if v.K == types.KindFloat {
				ints[i] = types.Int(int64(math.Float64bits(v.F)))
			}
		}
		for _, c := range []struct {
			kind types.Kind
			vals []types.Value
		}{{types.KindFloat, floats}, {types.KindInt, ints}, {types.KindInt, col}} {
			for _, buckets := range []int{1, 24} {
				got := columnStatsOf(c.kind, c.vals, buckets)
				want := referenceColumnStats(c.kind, c.vals, buckets)
				if !sameStats(got, want) {
					t.Fatalf("%v column of %d values, %d buckets: statistics differ from the reference\n got %+v hist %+v\nwant %+v hist %+v",
						c.kind, len(c.vals), buckets, got, got.Hist, want, want.Hist)
				}
			}
		}
	})
}

// bitCounts counts each bit pattern in fs.
func bitCounts(fs []float64) map[uint64]int {
	m := map[uint64]int{}
	for _, f := range fs {
		m[math.Float64bits(f)]++
	}
	return m
}
