package types

import (
	"encoding/binary"
	"math"
)

// The packed value is how stored and retained values are kept where a Value
// would take 40 bytes: heap pages, index keys, hash-join tables and
// exchanges. A value packs into PackedSize bytes — a kind byte and an 8-byte
// little-endian word: an int's, date's or bool's payload, a float's bits, or
// a string's index in a string list its holder keeps beside the bytes (16 B
// more). The tag sits on the value, so NULLs and columns of mixed kinds pack
// like any other, and a round trip gives back every value bit for bit: NaN
// payloads, -0 and the empty string included.

// PackedSize is the bytes one packed value takes.
const PackedSize = 9

// Pack writes v at b[:PackedSize]. A string packs as str, the index its
// holder keeps it at.
func Pack(b []byte, v Value, str int) {
	u := uint64(v.I)
	switch v.K {
	case KindFloat:
		u = math.Float64bits(v.F)
	case KindString:
		u = uint64(str)
	}
	b[0] = byte(v.K)
	binary.LittleEndian.PutUint64(b[1:PackedSize], u)
}

// PackedKind returns the kind of the value packed at b.
func PackedKind(b []byte) Kind { return Kind(b[0]) }

// PackedWord returns the word of the value packed at b: a string's index.
func PackedWord(b []byte) uint64 { return binary.LittleEndian.Uint64(b[1:PackedSize]) }

// Unpack boxes the value packed at b; a string is strs at its word.
func Unpack(b []byte, strs []string) Value {
	var v Value
	UnpackInto(&v, b, strs)
	return v
}

// UnpackInto is Unpack into *v, field by field: decoding a row in place so
// runs at about twice the speed of assigning Unpack's result, whose copy
// reads back the kind byte just stored as part of a word.
func UnpackInto(v *Value, b []byte, strs []string) {
	k, u := Kind(b[0]), binary.LittleEndian.Uint64(b[1:PackedSize])
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

// AppendPacked appends the value packed at b to v, as Append(Unpack(b,
// strs)) does, without boxing it when its kind is the vector's.
func (v *Vector) AppendPacked(b []byte, strs []string) {
	k, u := Kind(b[0]), binary.LittleEndian.Uint64(b[1:PackedSize])
	switch {
	case k != v.Kind || k == KindNull:
		v.Append(Unpack(b, strs))
	case k == KindFloat:
		v.Floats = append(v.Floats, math.Float64frombits(u))
	case k == KindString:
		v.Strs = append(v.Strs, strs[u])
	default:
		v.Ints = append(v.Ints, int64(u))
	}
}
