package experiments

import (
	"fmt"

	"rqp/internal/crack"
	"rqp/internal/storage"
	"rqp/internal/workload"
)

// E13Cracking reproduces the adaptive-indexing convergence curve: a stream
// of random range queries over one column, answered by four systems — plain
// scan, database cracking, adaptive merging and an up-front full sort
// index. The shapes to reproduce: scan is flat and high; full index pays a
// large first-query cost then is minimal; cracking starts near scan cost
// and converges toward the index; adaptive merging converges faster than
// cracking at a higher initial cost.
func E13Cracking(scale float64) (*Report, error) {
	n := scaleInt(200000, scale)
	domain := int64(100000)
	g := workload.NewGen(31)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = g.Uniform(domain)
	}
	queries := scaleInt(1000, scale)
	qGen := workload.NewGen(32)
	type rangeQ struct{ lo, hi int64 }
	qs := make([]rangeQ, queries)
	for i := range qs {
		lo := qGen.Uniform(domain - domain/100)
		qs[i] = rangeQ{lo: lo, hi: lo + domain/100}
	}

	type system struct {
		name  string
		count func(clk *storage.Clock, lo, hi int64) int
		clk   *storage.Clock
		curve []float64
	}
	scanClk := storage.NewClock(storage.DefaultCostModel())
	crackClk := storage.NewClock(storage.DefaultCostModel())
	mergeClk := storage.NewClock(storage.DefaultCostModel())
	sortClk := storage.NewClock(storage.DefaultCostModel())

	sc := crack.NewScan(vals)
	cr := crack.NewCracked(vals)
	am := crack.NewAdaptiveMerged(mergeClk, vals, 8192) // build cost charged
	fullBuild := sortClk.StartWatch()
	fx := crack.NewSorted(sortClk, vals) // build cost charged up front
	buildCostSorted := fullBuild.Elapsed()

	systems := []*system{
		{name: "scan", count: sc.RangeCount, clk: scanClk},
		{name: "crack", count: cr.RangeCount, clk: crackClk},
		{name: "adaptive-merge", count: am.RangeCount, clk: mergeClk},
		{name: "full-index", count: fx.RangeCount, clk: sortClk},
	}
	for _, q := range qs {
		want := -1
		for _, s := range systems {
			w := s.clk.StartWatch()
			got := s.count(s.clk, q.lo, q.hi)
			s.curve = append(s.curve, w.Elapsed())
			if want == -1 {
				want = got
			} else if got != want {
				return nil, fmt.Errorf("E13: %s returned %d, want %d", s.name, got, want)
			}
		}
	}

	r := newReport("E13", "adaptive indexing convergence: scan vs cracking vs adaptive merging vs full index")
	r.Printf("column=%d rows, %d queries of 1%% ranges", n, queries)
	r.Printf("full-index build cost (up front) = %.1f", buildCostSorted)
	points := []int{0, 9, 99, len(qs) - 1}
	for _, p := range points {
		if p >= len(qs) {
			continue
		}
		row := ""
		for _, s := range systems {
			row += s.name + "=" + fmtF(s.curve[p]) + " "
		}
		r.Printf("query %4d: %s", p+1, row)
	}
	for _, s := range systems {
		total := 0.0
		for _, c := range s.curve {
			total += c
		}
		r.Printf("cumulative %-15s = %.1f", s.name, total)
		r.Set("cum_"+s.name, total)
		r.Set("first_"+s.name, s.curve[0])
		r.Set("last_"+s.name, s.curve[len(s.curve)-1])
	}
	r.Set("pieces", float64(cr.NumPieces()))
	return r, nil
}

func fmtF(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
