package types

import (
	"encoding/binary"
	"math"
)

// The packed value is how retained values are kept where a Value would take
// 40 bytes: index keys, hash-join tables and exchanges, and a heap page's
// column whose values differ in kind or hold a NULL (a page keeps any other
// column at its values' own width). A value packs into PackedSize bytes — a
// kind byte and an 8-byte little-endian word (Word): an int's, date's or
// bool's payload, a float's bits, or a string's index in a string list its
// holder keeps beside the bytes (16 B more). The tag sits on the value, so
// NULLs and columns of mixed kinds pack like any other, and a round trip
// gives back every value bit for bit: NaN payloads, -0 and the empty string
// included.

// PackedSize is the bytes one packed value takes.
const PackedSize = 9

// Word returns the 8-byte word v packs to; a string's is str, the index its
// holder keeps it at.
func Word(v Value, str int) uint64 {
	switch v.K {
	case KindFloat:
		return math.Float64bits(v.F)
	case KindString:
		return uint64(str)
	}
	return uint64(v.I)
}

// Pack writes v at b[:PackedSize]. A string packs as str, the index its
// holder keeps it at.
func Pack(b []byte, v Value, str int) { PackWord(b, v.K, Word(v, str)) }

// PackWord writes the value of kind k whose word is u at b[:PackedSize].
func PackWord(b []byte, k Kind, u uint64) {
	b[0] = byte(k)
	binary.LittleEndian.PutUint64(b[1:PackedSize], u)
}

// PackedKind returns the kind of the value packed at b.
func PackedKind(b []byte) Kind { return Kind(b[0]) }

// PackedWord returns the word of the value packed at b: a string's index.
func PackedWord(b []byte) uint64 { return binary.LittleEndian.Uint64(b[1:PackedSize]) }

// Unpack boxes the value packed at b; a string is strs at its word.
func Unpack(b []byte, strs []string) Value {
	var v Value
	UnpackWord(&v, PackedKind(b), PackedWord(b), strs)
	return v
}

// UnpackWord boxes into *v the value of kind k whose word is u; a string is
// strs at u. It writes field by field: decoding a row in place so runs at
// about twice the speed of assigning a boxed result, whose copy reads back
// the kind byte just stored as part of a word.
func UnpackWord(v *Value, k Kind, u uint64, strs []string) {
	v.K, v.I, v.F, v.S = k, 0, 0, ""
	switch k {
	case KindNull:
	case KindFloat:
		v.F = math.Float64frombits(u)
	case KindString:
		v.S = strs[u]
	default:
		v.I = int64(u)
	}
}

// AppendWord appends the value of kind k whose word is u to v, as
// Append of it boxed does, without boxing it when its kind is the vector's.
func (v *Vector) AppendWord(k Kind, u uint64, strs []string) {
	switch {
	case k != v.Kind || k == KindNull:
		var x Value
		UnpackWord(&x, k, u, strs)
		v.Append(x)
	case k == KindFloat:
		v.Floats = append(v.Floats, math.Float64frombits(u))
	case k == KindString:
		v.Strs = append(v.Strs, strs[u])
	default:
		v.Ints = append(v.Ints, int64(u))
	}
}

// AppendWords appends the values of kind k whose words are w to v, as
// AppendWord does each, in one typed loop when k is the vector's kind.
func (v *Vector) AppendWords(k Kind, w []uint64, strs []string) {
	if len(w) > 0 && k != v.Kind && v.Len() == 0 {
		v.retype(k, v.room()) // as Append does at a first value
	}
	switch {
	case k != v.Kind || k == KindNull:
		for _, u := range w {
			v.AppendWord(k, u, strs)
		}
	case k == KindFloat:
		for _, u := range w {
			v.Floats = append(v.Floats, math.Float64frombits(u))
		}
	case k == KindString:
		for _, u := range w {
			v.Strs = append(v.Strs, strs[u])
		}
	default:
		for _, u := range w {
			v.Ints = append(v.Ints, int64(u))
		}
	}
}
