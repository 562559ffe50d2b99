// Package types defines the value, row and schema representations shared by
// every layer of the rqp engine: storage, indexing, expression evaluation,
// optimization and execution.
package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds. Date is stored as days since the epoch so that
// range predicates over dates behave exactly like integer ranges.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOL"
	case KindDate:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromName parses a SQL type name into a Kind.
func KindFromName(name string) (Kind, bool) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, true
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return KindFloat, true
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return KindString, true
	case "BOOL", "BOOLEAN":
		return KindBool, true
	case "DATE":
		return KindDate, true
	}
	return KindNull, false
}

// Value is a compact tagged union. Numeric payloads live in I or F, strings
// in S. Bool uses I (0/1) and Date uses I (days since epoch).
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{K: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{K: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{K: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{K: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Date returns a date value expressed as days since the epoch.
func Date(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// IsTrue reports whether v is a true boolean. NULL and false are both not true.
func (v Value) IsTrue() bool { return v.K == KindBool && v.I == 1 }

// AsInt returns the integer payload, converting floats by truncation.
func (v Value) AsInt() int64 {
	if v.K == KindFloat {
		return int64(v.F)
	}
	return v.I
}

// AsFloat returns the numeric payload as float64.
func (v Value) AsFloat() float64 {
	if v.K == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// Numeric reports whether the value participates in arithmetic.
func (v Value) Numeric() bool {
	return v.K == KindInt || v.K == KindFloat || v.K == KindDate
}

// String renders the value for display and EXPLAIN output.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "'" + v.S + "'"
	case KindBool:
		if v.I == 1 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return fmt.Sprintf("DATE(%d)", v.I)
	}
	return "?"
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// (int, float, date) compare numerically against each other; strings and
// bools compare within their own kind. Cross-kind non-numeric comparisons
// order by kind tag so that sorting heterogeneous data is total.
func Compare(a, b Value) int {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0
		case a.K == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.Numeric() && b.Numeric() {
		if a.K == KindFloat || b.K == KindFloat {
			af, bf := a.AsFloat(), b.AsFloat()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBool:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
	}
	return 0
}

// Equal reports SQL equality semantics minus NULL handling (NULL==NULL here;
// predicate evaluation handles three-valued logic above this level).
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a stable hash of the value, used by hash joins and hash
// aggregation. Ints, dates and integral floats hash identically so that
// numeric equality implies hash equality.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	switch v.K {
	case KindNull:
		buf[0] = 0xff
		h.Write(buf[:1])
	case KindString:
		h.Write([]byte{2})
		h.Write([]byte(v.S))
	case KindBool:
		h.Write([]byte{3, byte(v.I)})
	default: // numeric kinds hash through float64 canonical form when fractional
		f := v.AsFloat()
		if f == math.Trunc(f) && !math.IsInf(f, 0) {
			u := uint64(int64(f))
			for i := 0; i < 8; i++ {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write([]byte{1})
			h.Write(buf[:])
		} else {
			u := math.Float64bits(f)
			for i := 0; i < 8; i++ {
				buf[i] = byte(u >> (8 * i))
			}
			h.Write([]byte{4})
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// HashRow hashes a tuple of values (e.g. a composite join key).
func HashRow(vs []Value) uint64 {
	h := uint64(1469598103934665603) // fnv offset basis
	for _, v := range vs {
		h ^= v.Hash()
		h *= 1099511628211
	}
	return h
}
