package types

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// TestPackRoundTrip: every kind comes back bit for bit — NaN payloads, ±0,
// ±Inf, extreme integers, empty strings — through Unpack, through
// UnpackWord over a value that held something else, and through
// AppendWord and AppendWords into a vector of each kind: first the values of
// its kind, then the rest, which turn it mixed, and the other way round.
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
		UnpackWord(&dirty, PackedKind(b[:]), PackedWord(b[:]), strs)
		for _, got := range []Value{Unpack(b[:], strs), dirty} {
			if !same(got, v) {
				t.Errorf("%v (%x) came back as %v (%x)", v, math.Float64bits(v.F), got, math.Float64bits(got.F))
			}
		}
		packed = append(packed, b[:])
	}
	for _, k := range []Kind{KindNull, KindInt, KindFloat, KindString, KindBool, KindDate} {
		for _, last := range []bool{false, true} {
			order := slices.Clone(packed)
			slices.SortStableFunc(order, func(a, b []byte) int {
				c := cmp.Compare(btoi(PackedKind(b) == k), btoi(PackedKind(a) == k))
				if last {
					return -c
				}
				return c
			})
			got, runs, want := NewVectors(Schema{{Kind: k}}, 0), NewVectors(Schema{{Kind: k}}, 0), NewVectors(Schema{{Kind: k}}, 0)
			var run []uint64 // words of one kind, appended at once
			for i, b := range order {
				got[0].AppendWord(PackedKind(b), PackedWord(b), strs)
				want[0].Append(Unpack(b, strs))
				if run = append(run, PackedWord(b)); i+1 == len(order) || PackedKind(order[i+1]) != PackedKind(b) {
					runs[0].AppendWords(PackedKind(b), run, strs)
					run = run[:0]
				}
			}
			for i := range order {
				w := want[0].Value(i)
				if g, r := got[0].Value(i), runs[0].Value(i); !same(g, w) || !same(r, w) {
					t.Errorf("a %v vector: value %d is %v by AppendWord and %v by AppendWords, Append gives %v", k, i, g, r, w)
				}
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
