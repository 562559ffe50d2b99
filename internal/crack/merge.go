package crack

import (
	"sort"

	"rqp/internal/storage"
)

// AdaptiveMerged implements adaptive merging: the column starts as sorted
// runs (cheap to build — one partitioning pass plus per-run sorts); each
// query extracts its key range from every run that still holds qualifying
// values and merges those values into a consolidated sorted area. Ranges
// queried once never need run access again, so hot ranges converge to a
// full index much faster than cracking while cold ranges stay cheap.
type AdaptiveMerged struct {
	runs   [][]int64 // sorted runs, shrinking as ranges migrate
	merged []int64   // consolidated sorted values
}

// NewAdaptiveMerged partitions the input into sorted runs of runSize.
func NewAdaptiveMerged(clk *storage.Clock, vals []int64, runSize int) *AdaptiveMerged {
	if runSize < 1 {
		runSize = 1024
	}
	a := &AdaptiveMerged{}
	for start := 0; start < len(vals); start += runSize {
		end := start + runSize
		if end > len(vals) {
			end = len(vals)
		}
		run := append([]int64(nil), vals[start:end]...)
		if clk != nil && len(run) > 1 {
			clk.Compares(len(run) * intLog2(len(run)))
			clk.RowWork(len(run))
		}
		sort.Slice(run, func(i, j int) bool { return run[i] < run[j] })
		a.runs = append(a.runs, run)
	}
	return a
}

// RangeCount answers lo <= v < hi, merging the qualifying range out of the
// runs into the consolidated area as a side effect.
func (a *AdaptiveMerged) RangeCount(clk *storage.Clock, lo, hi int64) int {
	if lo >= hi {
		return 0
	}
	var moved []int64
	for ri, run := range a.runs {
		if len(run) == 0 {
			continue
		}
		if clk != nil {
			clk.Compares(2 * intLog2(len(run)+1))
			clk.RandRead(1)
		}
		i := sort.Search(len(run), func(k int) bool { return run[k] >= lo })
		j := sort.Search(len(run), func(k int) bool { return run[k] >= hi })
		if j > i {
			moved = append(moved, run[i:j]...)
			if clk != nil {
				clk.RowWork(j - i)
			}
			a.runs[ri] = append(append([]int64(nil), run[:i]...), run[j:]...)
		}
	}
	if len(moved) > 0 {
		if clk != nil {
			clk.Compares((len(moved) + len(a.merged)) / 4) // galloping merge
			clk.RowWork(len(moved))
		}
		sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
		a.merged = mergeSorted(a.merged, moved)
	}
	// Count in the consolidated area.
	i := sort.Search(len(a.merged), func(k int) bool { return a.merged[k] >= lo })
	j := sort.Search(len(a.merged), func(k int) bool { return a.merged[k] >= hi })
	if clk != nil {
		clk.Compares(2 * intLog2(len(a.merged)+1))
		clk.SeqRead((j - i + storage.PageRows - 1) / storage.PageRows)
	}
	return j - i
}

func mergeSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
