package types

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// TestPackRoundTrip: every kind comes back bit for bit — NaN payloads, ±0,
// ±Inf, extreme integers, empty strings — through Unpack, through
// UnpackInto over a value that held something else, and through
// AppendPacked into a vector of each kind: first the values of its kind,
// then the rest, which turn it mixed.
func TestPackRoundTrip(t *testing.T) {
	strs := []string{"", "x", "é"}
	var packed [][]byte
	same := func(got, v Value) bool {
		return got.K == v.K && got.I == v.I && math.Float64bits(got.F) == math.Float64bits(v.F) && got.S == v.S
	}
	for _, v := range []Value{
		Null(), Int(math.MinInt64), Int(math.MaxInt64), Int(0), Date(-719162), Bool(true), Bool(false),
		Float(math.Copysign(0, -1)), Float(0), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Float64frombits(0xfff0000000000abc)),
		Str(""), Str("x"), Str("é"),
	} {
		var b [PackedSize]byte
		str := 0
		for i, s := range strs {
			if v.K == KindString && s == v.S {
				str = i
			}
		}
		Pack(b[:], v, str)
		dirty := Value{K: KindString, I: 7, F: 1.5, S: "dirty"}
		UnpackInto(&dirty, b[:], strs)
		for _, got := range []Value{Unpack(b[:], strs), dirty} {
			if !same(got, v) {
				t.Errorf("%v (%x) came back as %v (%x)", v, math.Float64bits(v.F), got, math.Float64bits(got.F))
			}
		}
		packed = append(packed, b[:])
	}
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindBool, KindDate} {
		order := slices.Clone(packed)
		slices.SortStableFunc(order, func(a, b []byte) int { return cmp.Compare(btoi(PackedKind(b) == k), btoi(PackedKind(a) == k)) })
		got, want := NewVectors(Schema{{Kind: k}}, 0), NewVectors(Schema{{Kind: k}}, 0)
		for _, b := range order {
			got[0].AppendPacked(b, strs)
			want[0].Append(Unpack(b, strs))
		}
		for i := range order {
			if g, w := got[0].Value(i), want[0].Value(i); !same(g, w) {
				t.Errorf("a %v vector: value %d is %v, Append gives %v", k, i, g, w)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
