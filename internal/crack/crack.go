// Package crack implements adaptive indexing on a column store slice:
// database cracking (Idreos, Kersten & Manegold) and adaptive merging
// (Graefe & Kuno), plus the two bracketing baselines — a plain scan and an
// up-front full sort index. Each query's data touches are charged on a
// clock so the convergence curves the report's physical-design sessions
// discuss (per-query cost over a query sequence) come out directly.
package crack

import (
	"sort"

	"rqp/internal/storage"
)

// CrackedColumn is a copy of a column that is incrementally reorganized by
// the queries themselves: each range query partitions ("cracks") the pieces
// it touches so future queries scan less.
type CrackedColumn struct {
	vals []int64
	// boundaries[i] = (value v, position p) meaning vals[:p] < v <= rest.
	bounds []crackBound
}

type crackBound struct {
	val int64
	pos int
}

// NewCracked copies the column (the cracker column is a self-organizing
// auxiliary copy; the base column stays untouched).
func NewCracked(vals []int64) *CrackedColumn {
	return &CrackedColumn{vals: append([]int64(nil), vals...)}
}

// pieceFor returns [start, end) of the piece that must be cracked to place
// a boundary at value v.
func (c *CrackedColumn) pieceFor(v int64) (int, int) {
	lo, hi := 0, len(c.vals)
	for _, b := range c.bounds {
		if b.val <= v {
			if b.pos > lo {
				lo = b.pos
			}
		} else {
			if b.pos < hi {
				hi = b.pos
			}
		}
	}
	return lo, hi
}

// crackAt partitions the containing piece around v (vals < v left, >= v
// right), records the boundary and returns its position. Touched rows are
// charged as row work.
func (c *CrackedColumn) crackAt(clk *storage.Clock, v int64) int {
	for _, b := range c.bounds {
		if b.val == v {
			return b.pos
		}
	}
	lo, hi := c.pieceFor(v)
	if clk != nil {
		clk.RowWork(hi - lo)
		clk.Compares(hi - lo)
	}
	// Hoare-style partition of vals[lo:hi] around v.
	i, j := lo, hi-1
	for i <= j {
		for i <= j && c.vals[i] < v {
			i++
		}
		for i <= j && c.vals[j] >= v {
			j--
		}
		if i < j {
			c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
			i++
			j--
		}
	}
	pos := i
	c.bounds = append(c.bounds, crackBound{val: v, pos: pos})
	sort.Slice(c.bounds, func(a, b int) bool { return c.bounds[a].val < c.bounds[b].val })
	return pos
}

// RangeCount answers SELECT COUNT(*) WHERE lo <= col < hi, cracking as a
// side effect.
func (c *CrackedColumn) RangeCount(clk *storage.Clock, lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	p1 := c.crackAt(clk, lo)
	p2 := c.crackAt(clk, hi)
	if clk != nil {
		clk.SeqRead((p2 - p1 + storage.PageRows - 1) / storage.PageRows)
	}
	return p2 - p1
}

// NumPieces reports how fragmented (i.e. how converged) the column is.
func (c *CrackedColumn) NumPieces() int { return len(c.bounds) + 1 }

// ---------- baselines ----------

// ScanColumn is the naive baseline: every query scans everything.
type ScanColumn struct{ vals []int64 }

// NewScan wraps a column for scan-only access.
func NewScan(vals []int64) *ScanColumn { return &ScanColumn{vals: vals} }

// RangeCount scans the whole column.
func (s *ScanColumn) RangeCount(clk *storage.Clock, lo, hi int64) int {
	if clk != nil {
		clk.RowWork(len(s.vals))
		clk.SeqRead((len(s.vals) + storage.PageRows - 1) / storage.PageRows)
	}
	n := 0
	for _, v := range s.vals {
		if v >= lo && v < hi {
			n++
		}
	}
	return n
}

// SortedColumn is the up-front full index baseline: pay n·log n once, then
// answer with binary searches.
type SortedColumn struct{ vals []int64 }

// NewSorted sorts a copy of the column, charging the build cost.
func NewSorted(clk *storage.Clock, vals []int64) *SortedColumn {
	cp := append([]int64(nil), vals...)
	if clk != nil && len(cp) > 1 {
		clk.Compares(len(cp) * intLog2(len(cp)))
		clk.RowWork(len(cp))
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return &SortedColumn{vals: cp}
}

func intLog2(n int) int {
	l := 0
	for n > 1 {
		n /= 2
		l++
	}
	return l
}

// RangeCount binary-searches both bounds.
func (s *SortedColumn) RangeCount(clk *storage.Clock, lo, hi int64) int {
	if clk != nil {
		clk.Compares(2 * intLog2(len(s.vals)+1))
		clk.RandRead(2)
	}
	i := sort.Search(len(s.vals), func(k int) bool { return s.vals[k] >= lo })
	j := sort.Search(len(s.vals), func(k int) bool { return s.vals[k] >= hi })
	if clk != nil {
		clk.SeqRead((j - i + storage.PageRows - 1) / storage.PageRows)
	}
	return j - i
}
