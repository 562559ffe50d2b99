package types

import (
	"cmp"
	"strings"
)

// Vector is one column of a table in row order, the form ANALYZE reads a
// heap into: a typed slice at 8 or 16 bytes a value while every value is of
// one non-NULL kind, the boxed values from the first NULL or second kind on.
// Statistics and the columnar snapshot are both built from it, and the
// snapshot keeps the slices it stores raw, so a filled vector is read-only.
type Vector struct {
	// Kind is the kind of every value in the typed slice, KindNull once
	// Mixed holds the column.
	Kind   Kind
	Ints   []int64   // KindInt, KindDate, KindBool
	Floats []float64 // KindFloat
	Strs   []string  // KindString
	Mixed  []Value
}

// NewVectors returns one empty vector per column of s with room for n rows.
func NewVectors(s Schema, n int) []Vector {
	vecs := make([]Vector, len(s))
	for i, c := range s {
		vecs[i].retype(c.Kind, n)
	}
	return vecs
}

// retype makes v an empty vector of kind k with room for n values.
func (v *Vector) retype(k Kind, n int) {
	*v = Vector{Kind: k}
	switch k {
	case KindNull:
		v.Mixed = make([]Value, 0, n)
	case KindFloat:
		v.Floats = make([]float64, 0, n)
	case KindString:
		v.Strs = make([]string, 0, n)
	default:
		v.Ints = make([]int64, 0, n)
	}
}

// Len returns the number of values appended.
func (v *Vector) Len() int {
	return len(v.Ints) + len(v.Floats) + len(v.Strs) + len(v.Mixed)
}

func (v *Vector) room() int {
	return cap(v.Ints) + cap(v.Floats) + cap(v.Strs) + cap(v.Mixed)
}

// Append adds x as the next row's value. An empty vector takes the kind of
// its first value, whatever the schema declared.
func (v *Vector) Append(x Value) {
	if x.K != v.Kind {
		if n := v.Len(); n == 0 {
			v.retype(x.K, v.room())
		} else if v.Kind != KindNull {
			boxed := make([]Value, n, max(n+1, v.room()))
			for i := range boxed {
				boxed[i] = v.Value(i)
			}
			*v = Vector{Mixed: boxed}
		}
	}
	switch v.Kind {
	case KindNull:
		v.Mixed = append(v.Mixed, x)
	case KindFloat:
		v.Floats = append(v.Floats, x.F)
	case KindString:
		v.Strs = append(v.Strs, x.S)
	default:
		v.Ints = append(v.Ints, x.I)
	}
}

// Value returns row i's value, boxed.
func (v *Vector) Value(i int) Value {
	switch v.Kind {
	case KindNull:
		return v.Mixed[i]
	case KindFloat:
		return Float(v.Floats[i])
	case KindString:
		return Str(v.Strs[i])
	}
	return Value{K: v.Kind, I: v.Ints[i]}
}

// Compare orders rows i and j by their values in this column: Compare's
// order on a mixed column, the natural order of the typed slice otherwise.
func (v *Vector) Compare(i, j int) int {
	switch v.Kind {
	case KindNull:
		return Compare(v.Mixed[i], v.Mixed[j])
	case KindFloat:
		return cmp.Compare(v.Floats[i], v.Floats[j])
	case KindString:
		return strings.Compare(v.Strs[i], v.Strs[j])
	}
	return cmp.Compare(v.Ints[i], v.Ints[j])
}
