package types

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// Row is a tuple of values. Operators pass rows by slice; ownership follows
// the Volcano convention: a row returned by Next is valid until the next
// call, so consumers that buffer must Clone.
type Row []Value

// Clone returns a deep-enough copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// HashRows hashes every value of rows in order, floats by their bits (FNV-64a):
// two results hash alike only if they are the same rows in the same order.
func HashRows(rows []Row) uint64 {
	h := fnv.New64a()
	var w [9]byte
	for _, r := range rows {
		for _, v := range r {
			w[0] = byte(v.K)
			u := uint64(v.I)
			if v.K == KindFloat {
				u = math.Float64bits(v.F)
			}
			binary.LittleEndian.PutUint64(w[1:], u)
			h.Write(w[:])
			h.Write([]byte(v.S))
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Concat returns the concatenation of two rows (used by joins).
func Concat(a, b Row) Row {
	out := make(Row, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Column describes one attribute of a schema: its (optionally qualified)
// name and kind.
type Column struct {
	Table string // owning table or alias; empty for computed columns
	Name  string
	Kind  Kind
}

// QualifiedName returns table.name, or just name if unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing the rows an operator
// produces.
type Schema []Column

// ColIndex resolves a possibly qualified column reference to an index in the
// schema. It returns -1 if the name is not found and -2 if an unqualified
// name is ambiguous.
func (s Schema) ColIndex(table, name string) int {
	found := -1
	for i, c := range s {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" {
			if strings.EqualFold(c.Table, table) {
				return i
			}
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// MustColIndex is ColIndex that panics on failure; for internal plan
// construction where names were already validated.
func (s Schema) MustColIndex(table, name string) int {
	i := s.ColIndex(table, name)
	if i < 0 {
		panic(fmt.Sprintf("types: column %q.%q not in schema %v", table, name, s))
	}
	return i
}

// Concat returns the concatenation of two schemas (used by joins).
func (s Schema) Concat(other Schema) Schema {
	out := make(Schema, 0, len(s)+len(other))
	out = append(out, s...)
	return append(out, other...)
}

// WithTable returns a copy of the schema with every column re-qualified by
// the given table alias.
func (s Schema) WithTable(table string) Schema {
	out := make(Schema, len(s))
	for i, c := range s {
		c.Table = table
		out[i] = c
	}
	return out
}

// Names returns the qualified column names, for EXPLAIN and result headers.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.QualifiedName()
	}
	return out
}
