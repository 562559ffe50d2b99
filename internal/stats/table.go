package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rqp/internal/types"
)

// TableStats holds per-table statistics: row count, per-column statistics
// and optional column-group (correlation) statistics.
type TableStats struct {
	mu       sync.RWMutex
	RowCount float64
	Cols     []*ColumnStats

	// groups maps a sorted column-index set (encoded) to the joint distinct
	// count of that group — the CORDS-style correlation statistic — and to
	// the set itself, so that the next ANALYZE recomputes it.
	groups map[string]group
}

type group struct {
	cols []int
	ndv  float64
}

// NewTableStats returns empty statistics for a table with n columns.
func NewTableStats(n int) *TableStats {
	return &TableStats{Cols: make([]*ColumnStats, n), groups: map[string]group{}}
}

// analyzeWorkers is how many goroutines one ANALYZE computes column
// statistics on: the caller and one helper, the one background processor a
// utility is allowed beside the statements it runs with.
const analyzeWorkers = 2

// parallelFloor is the row count from which ANALYZE hands columns to its
// helper; below it, starting one costs more than the sorting it would share.
const parallelFloor = 4096

// analysis is one ANALYZE's columns, its result being filled and its
// workers' numeric sort buffers, each a column long. It is kept from one
// ANALYZE to the next in spareAnalysis, buffers and all, as storage keeps its
// column build scratch: an ANALYZE takes it with Swap(nil) and puts it back
// when done, so two concurrent ones never share it (the second allocates its
// own). String copies are not kept: they would pin the strings.
type analysis struct {
	nums    [analyzeWorkers][]float64
	cols    []types.Vector
	schema  types.Schema
	buckets int
	ts      *TableStats
	next    atomic.Int32 // the next column not yet taken
	helper  sync.WaitGroup
}

var spareAnalysis atomic.Pointer[analysis]

// work computes the statistics of column after column not yet taken, on
// worker w's buffer.
func (a *analysis) work(w int) {
	scratch := colScratch{nums: a.nums[w]}
	for c := int(a.next.Add(1) - 1); c < len(a.cols); c = int(a.next.Add(1) - 1) {
		a.ts.Cols[c] = scratch.columnStats(a.schema[c].Kind, &a.cols[c], a.buckets)
	}
	a.nums[w] = scratch.nums
}

func (a *analysis) help() {
	a.work(1)
	a.helper.Done()
}

// Analyze computes statistics from the table's columns, schema[c] declaring
// column c's kind, and recomputes every column group recorded in prev, the
// statistics being replaced (nil: none). From parallelFloor rows on, the
// caller shares the columns with one helper goroutine.
func Analyze(cols []types.Vector, schema types.Schema, buckets int, prev *TableStats) *TableStats {
	ts := NewTableStats(len(cols))
	if len(cols) > 0 {
		ts.RowCount = float64(cols[0].Len())
	}
	a := spareAnalysis.Swap(nil)
	if a == nil {
		a = new(analysis)
	}
	a.cols, a.schema, a.buckets, a.ts = cols, schema, buckets, ts
	a.next.Store(0)
	if ts.RowCount >= parallelFloor && len(cols) > 1 {
		a.helper.Add(1)
		go a.help()
		a.work(0)
		a.helper.Wait()
	} else {
		a.work(0)
	}
	a.cols, a.schema, a.ts = nil, nil, nil
	spareAnalysis.Store(a)
	if prev != nil {
		prev.mu.RLock()
		defer prev.mu.RUnlock()
		for _, g := range prev.groups {
			ts.AnalyzeGroup(g.cols, cols)
		}
	}
	return ts
}

func groupKey(cols []int) string {
	s := append([]int(nil), cols...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// SetGroupNDV records the joint distinct count of a column group.
func (ts *TableStats) SetGroupNDV(cols []int, ndv float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.groups[groupKey(cols)] = group{cols: append([]int(nil), cols...), ndv: ndv}
}

// GroupNDV returns the joint distinct count of a column group, if recorded.
func (ts *TableStats) GroupNDV(cols []int) (float64, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	g, ok := ts.groups[groupKey(cols)]
	return g.ndv, ok
}

// AnalyzeGroup computes and stores the joint NDV of a column group of the
// table whose columns are vecs: row numbers sorted by the group's columns
// hold one run per distinct combination.
func (ts *TableStats) AnalyzeGroup(cols []int, vecs []types.Vector) {
	order := func(a, b int32) int {
		for _, c := range cols {
			if d := vecs[c].Compare(int(a), int(b)); d != 0 {
				return d
			}
		}
		return 0
	}
	rows := make([]int32, vecs[cols[0]].Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	slices.SortFunc(rows, order)
	ndv := 0
	for i := range rows {
		if i == 0 || order(rows[i-1], rows[i]) != 0 {
			ndv++
		}
	}
	ts.SetGroupNDV(cols, float64(ndv))
}

// ColStats returns per-column statistics (nil if not analyzed).
func (ts *TableStats) ColStats(col int) *ColumnStats {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if col < 0 || col >= len(ts.Cols) {
		return nil
	}
	return ts.Cols[col]
}

// CorrelatedConjunctionSelectivity combines per-column equality/range
// selectivities for a set of columns. Without group statistics it falls
// back to the independence assumption (the classic failure mode the
// Dagstuhl "black hat" tests probe); with a recorded group NDV it applies
// the joint-distinct correction, which collapses redundant predicates
// instead of multiplying their selectivities.
func (ts *TableStats) CorrelatedConjunctionSelectivity(cols []int, perColSel []float64) float64 {
	indep := 1.0
	for _, s := range perColSel {
		indep *= s
	}
	ndvJoint, ok := ts.GroupNDV(cols)
	if !ok || ndvJoint <= 0 {
		return clamp01(indep)
	}
	minSel := 1.0
	prodNDV := 1.0
	maxNDV := 1.0
	for i, c := range cols {
		if perColSel[i] < minSel {
			minSel = perColSel[i]
		}
		if cs := ts.ColStats(c); cs != nil && cs.NDV > 0 {
			prodNDV *= cs.NDV
			if cs.NDV > maxNDV {
				maxNDV = cs.NDV
			}
		}
	}
	if prodNDV <= maxNDV {
		return clamp01(indep)
	}
	// Functional-dependency degree from distinct counts: 0 when the joint
	// NDV equals the independence product (columns independent), 1 when it
	// equals the largest single-column NDV (one column determines the
	// rest). The combined selectivity interpolates geometrically between
	// the independence product and the most selective factor — exact at
	// both ends regardless of how skewed the marginals are.
	fd := math.Log(prodNDV/ndvJoint) / math.Log(prodNDV/maxNDV)
	if fd < 0 {
		fd = 0
	}
	if fd > 1 {
		fd = 1
	}
	if indep <= 0 || minSel <= 0 {
		return clamp01(indep)
	}
	sel := indep * math.Pow(minSel/indep, fd)
	if sel > minSel {
		sel = minSel
	}
	return clamp01(sel)
}

// JoinSelectivity estimates equi-join selectivity between two columns using
// 1/max(ndv) — the textbook formula.
func JoinSelectivity(left, right *ColumnStats) float64 {
	l, r := 100.0, 100.0
	if left != nil && left.NDV > 0 {
		l = left.NDV
	}
	if right != nil && right.NDV > 0 {
		r = right.NDV
	}
	return 1 / math.Max(l, r)
}
