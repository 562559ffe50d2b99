// Package stats implements the statistics subsystem: equi-depth histograms,
// distinct-value and correlation statistics, LEO-style query feedback,
// maximum-entropy selectivity combination and Beta-posterior selectivity
// distributions for robust (percentile-based) estimation.
package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"rqp/internal/types"
)

// Histogram is an equi-depth histogram over a numeric (or date) column.
// Bucket i covers (bounds[i], bounds[i+1]], except bucket 0 which includes
// its lower bound.
type Histogram struct {
	Bounds   []float64 // len = buckets+1
	Counts   []float64 // rows per bucket
	Distinct []float64 // distinct values per bucket (estimated)
	Total    float64
}

// BuildHistogram constructs an equi-depth histogram with at most `buckets`
// buckets from the column values (NULLs excluded by the caller).
func BuildHistogram(vals []float64, buckets int) *Histogram {
	if len(vals) == 0 {
		return &Histogram{Bounds: []float64{0, 0}, Counts: []float64{0}, Distinct: []float64{0}}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	return histogramOf(sorted, buckets)
}

// histogramOf is BuildHistogram of values already sorted and not empty.
func histogramOf(sorted []float64, buckets int) *Histogram {
	if buckets < 1 {
		buckets = 1
	}
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	per := float64(len(sorted)) / float64(buckets)
	h := &Histogram{
		Bounds:   make([]float64, 0, buckets+1),
		Counts:   make([]float64, 0, buckets),
		Distinct: make([]float64, 0, buckets),
		Total:    float64(len(sorted)),
	}
	h.Bounds = append(h.Bounds, sorted[0])
	start := 0
	for b := 1; b <= buckets; b++ {
		end := int(math.Round(per * float64(b)))
		if end <= start {
			end = start + 1
		}
		if end > len(sorted) {
			end = len(sorted)
		}
		if b == buckets {
			end = len(sorted)
		}
		seg := sorted[start:end]
		h.Counts = append(h.Counts, float64(len(seg)))
		h.Distinct = append(h.Distinct, float64(countDistinct(seg)))
		h.Bounds = append(h.Bounds, seg[len(seg)-1])
		start = end
		if start >= len(sorted) {
			break
		}
	}
	return h
}

func countDistinct(sorted []float64) int {
	if len(sorted) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			n++
		}
	}
	return n
}

// Buckets returns the bucket count.
func (h *Histogram) Buckets() int { return len(h.Counts) }

// Min returns the histogram's minimum bound.
func (h *Histogram) Min() float64 { return h.Bounds[0] }

// Max returns the histogram's maximum bound.
func (h *Histogram) Max() float64 { return h.Bounds[len(h.Bounds)-1] }

// SelectivityRange estimates the fraction of rows in [lo, hi] (use ±Inf for
// open ends; inclusivity is approximated, which is standard for
// histogram-based estimation over continuous domains).
func (h *Histogram) SelectivityRange(lo, hi float64) float64 {
	if h.Total == 0 {
		return 0
	}
	if lo > hi {
		return 0
	}
	rows := 0.0
	for i := range h.Counts {
		bLo, bHi := h.Bounds[i], h.Bounds[i+1]
		if bHi < lo || bLo > hi {
			continue
		}
		width := bHi - bLo
		overlapLo := math.Max(bLo, lo)
		overlapHi := math.Min(bHi, hi)
		frac := 1.0
		if width > 0 {
			frac = (overlapHi - overlapLo) / width
			if frac < 0 {
				frac = 0
			}
		} else if overlapHi < overlapLo {
			frac = 0
		}
		// Point queries inside a bucket get at least one distinct value's
		// share so equality never estimates to zero.
		if frac == 0 && lo == hi && lo >= bLo && lo <= bHi {
			frac = 1 / math.Max(h.Distinct[i], 1)
		}
		rows += h.Counts[i] * frac
	}
	sel := rows / h.Total
	if lo == hi {
		// Equality: the interpolated width-share is meaningless; use the
		// per-distinct share of the containing bucket instead.
		sel = h.selectivityEq(lo)
	}
	return clamp01(sel)
}

func (h *Histogram) selectivityEq(v float64) float64 {
	if h.Total == 0 {
		return 0
	}
	for i := range h.Counts {
		bLo, bHi := h.Bounds[i], h.Bounds[i+1]
		if v >= bLo && (v <= bHi || i == len(h.Counts)-1 && v == bHi) {
			d := math.Max(h.Distinct[i], 1)
			return clamp01(h.Counts[i] / d / h.Total)
		}
	}
	return 0
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ColumnStats aggregates everything known about one column.
type ColumnStats struct {
	Kind      types.Kind
	RowCount  float64
	NullCount float64
	NDV       float64
	MinV      float64
	MaxV      float64
	Hist      *Histogram // numeric kinds only

	// TopValues holds the most common string values with exact counts.
	TopValues map[string]float64
	// TopNums holds the most common integral numeric values with exact
	// counts — the MCV statistic that keeps equality estimates honest under
	// skew (histograms alone average heavy hitters away).
	TopNums map[int64]float64
}

// topRuns is how many most-common values a column keeps exact counts for.
const topRuns = 64

// colScratch holds the sorted copies column statistics are read off, reused
// from column to column of one ANALYZE.
type colScratch struct {
	nums []float64 // every numeric value
	strs []string
	ints []int64 // integers from ±2^53 outwards only: they can share a float64
}

// columnStats computes statistics for a column from its vector, which it
// does not modify. It sorts one copy of the column and reads everything off
// the runs of equal values in it: a run is a distinct value and its length
// the value's count. Numeric values are sorted as float64, which the
// histogram wants anyway; distinct integers too large for float64 to tell
// apart are counted from a sorted copy of their own.
func (s *colScratch) columnStats(kind types.Kind, v *types.Vector, buckets int) *ColumnStats {
	cs := &ColumnStats{Kind: kind, RowCount: float64(v.Len()), MinV: math.Inf(1), MaxV: math.Inf(-1)}
	s.nums, s.strs, s.ints = s.nums[:0], s.strs[:0], s.ints[:0]
	var bools [2]bool
	addInt := func(i int64) {
		if i >= 1<<53 || i <= -(1<<53) {
			s.ints = append(s.ints, i)
		}
	}
	switch v.Kind {
	case types.KindFloat:
		s.nums = append(s.nums, v.Floats...)
	case types.KindString:
		s.strs = append(s.strs, v.Strs...)
	case types.KindBool:
		for _, b := range v.Ints {
			bools[b&1] = true
		}
	case types.KindInt, types.KindDate:
		s.nums = slices.Grow(s.nums, len(v.Ints))
		for _, i := range v.Ints {
			s.nums = append(s.nums, float64(i))
			addInt(i)
		}
	default:
		for _, x := range v.Mixed {
			switch x.K {
			case types.KindNull:
				cs.NullCount++
			case types.KindString:
				s.strs = append(s.strs, x.S)
			case types.KindBool:
				bools[x.I&1] = true
			case types.KindFloat:
				s.nums = append(s.nums, x.F)
				if x.F == math.Trunc(x.F) {
					addInt(int64(x.F))
				}
			default:
				s.nums = append(s.nums, float64(x.I))
				addInt(x.I)
			}
		}
	}
	for _, seen := range bools {
		if seen {
			cs.NDV++
		}
	}
	if len(s.nums) > 0 {
		slices.Sort(s.nums) // NaNs first
		var ndv int
		ndv, cs.TopNums = mostCommon(s.nums, func(f float64) (int64, bool) { return int64(f), f == math.Trunc(f) })
		cs.NDV += float64(ndv)
		if nan := sort.SearchFloat64s(s.nums, math.Inf(-1)); nan < len(s.nums) {
			cs.MinV, cs.MaxV = s.nums[nan], s.nums[len(s.nums)-1]
		}
		cs.Hist = histogramOf(s.nums, buckets)
	}
	if len(s.ints) > 0 {
		slices.Sort(s.ints)
		for i := 1; i < len(s.ints); i++ {
			if s.ints[i] != s.ints[i-1] && float64(s.ints[i]) == float64(s.ints[i-1]) {
				cs.NDV++
			}
		}
	}
	if len(s.strs) > 0 {
		slices.Sort(s.strs)
		var ndv int
		ndv, cs.TopValues = mostCommon(s.strs, func(s string) (string, bool) { return s, true })
		cs.NDV += float64(ndv)
	}
	return cs
}

// mostCommon counts the runs of equal values in sorted and returns the
// topRuns longest among those key accepts, as key -> length; of two runs of
// one length the smaller value wins. The map is nil when key accepts none.
func mostCommon[T cmp.Ordered, K comparable](sorted []T, key func(T) (K, bool)) (runs int, top map[K]float64) {
	var vals [topRuns]T
	var counts [topRuns]int
	n, worst := 0, 0 // worst: the shortest kept run, the largest value among equals
	for i, j := 0, 0; i < len(sorted); i = j {
		for j = i + 1; j < len(sorted) && sorted[j] == sorted[i]; j++ {
		}
		runs++
		if _, ok := key(sorted[i]); !ok {
			continue
		}
		// Values arrive ascending, so a run displaces the worst kept only
		// when it is strictly longer.
		switch {
		case n < topRuns:
			vals[n], counts[n] = sorted[i], j-i
			n++
		case j-i > counts[worst]:
			vals[worst], counts[worst] = sorted[i], j-i
		default:
			continue
		}
		if n == topRuns {
			worst = 0
			for w := 1; w < n; w++ {
				if counts[w] < counts[worst] || counts[w] == counts[worst] && vals[w] > vals[worst] {
					worst = w
				}
			}
		}
	}
	if n > 0 {
		top = make(map[K]float64, n)
		for w := 0; w < n; w++ {
			k, _ := key(vals[w])
			top[k] = float64(counts[w])
		}
	}
	return runs, top
}

// NonNullFraction returns the fraction of non-null rows.
func (cs *ColumnStats) NonNullFraction() float64 {
	if cs.RowCount == 0 {
		return 0
	}
	return (cs.RowCount - cs.NullCount) / cs.RowCount
}

// SelectivityEq estimates selectivity of column = value.
func (cs *ColumnStats) SelectivityEq(v types.Value) float64 {
	if cs.RowCount == 0 {
		return 0
	}
	if v.IsNull() {
		return 0
	}
	if v.K == types.KindString {
		if cs.TopValues != nil {
			if c, ok := cs.TopValues[v.S]; ok {
				return clamp01(c / cs.RowCount)
			}
		}
		if cs.NDV > 0 {
			return clamp01(1 / cs.NDV * cs.NonNullFraction())
		}
		return 0.01
	}
	f := v.AsFloat()
	if cs.TopNums != nil && f == math.Trunc(f) {
		if c, ok := cs.TopNums[int64(f)]; ok {
			return clamp01(c / cs.RowCount)
		}
	}
	if cs.Hist != nil {
		return cs.Hist.selectivityEq(f) * cs.NonNullFraction()
	}
	if cs.NDV > 0 {
		return clamp01(1 / cs.NDV * cs.NonNullFraction())
	}
	return 0.01
}

// SelectivityRange estimates selectivity of lo <= column <= hi (±Inf open).
func (cs *ColumnStats) SelectivityRange(lo, hi float64) float64 {
	if cs.Hist != nil {
		return cs.Hist.SelectivityRange(lo, hi) * cs.NonNullFraction()
	}
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		return cs.NonNullFraction()
	}
	// Uniform fallback over [MinV, MaxV].
	if cs.MaxV <= cs.MinV {
		if lo <= cs.MinV && hi >= cs.MaxV {
			return cs.NonNullFraction()
		}
		return 0
	}
	l := math.Max(lo, cs.MinV)
	h := math.Min(hi, cs.MaxV)
	if h < l {
		return 0
	}
	return clamp01((h - l) / (cs.MaxV - cs.MinV) * cs.NonNullFraction())
}
