package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rqp/internal/catalog"
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// FilterSweepPoint is one row of the runtime-filter robustness map: a fact
// x dim hash join executed with and without runtime join filters at one
// build-side selectivity.
type FilterSweepPoint struct {
	Sel        float64 // fraction of fact keys present on the build side
	Unfiltered float64 // simulated cost without runtime filters
	Filtered   float64 // simulated cost with runtime filters armed
	Ratio      float64 // Unfiltered / Filtered (>1 means the filter won)
	Built      int     // filters published after the build phase
	Tested     int     // probe rows that paid a membership test
	Dropped    int     // probe rows rejected before full per-row cost
	Disabled   int     // filters that disabled themselves mid-query
	Match      bool    // filtered results byte-identical to unfiltered
}

// filterSweepSels is the selectivity ladder: from needle-in-a-haystack
// joins (filters should dominate) to join-everything (filters must get out
// of the way via adaptive disable).
var filterSweepSels = []float64{0.001, 0.01, 0.1, 0.5, 0.9, 1.0}

// FilterSweep runs the runtime-filter selectivity sweep and returns both
// the report and the raw points (for rqpbench -filter-sweep and the
// DESIGN.md table). The fact table holds N unique keys; the dim table
// holds sel*N of them, spread evenly so min/max bounds alone cannot do the
// filtering. The join is forced to JoinHash with fact as the probe side,
// exactly the shape plan.PlanRuntimeFilters targets. The robustness claim:
// at sel <= 1% the filtered plan is at least 2x cheaper, and at sel >= 90%
// adaptive disable keeps the overhead within 10% — with results identical
// everywhere.
func FilterSweep(scale float64) (*Report, []FilterSweepPoint, error) {
	factRows := scaleInt(20000, scale)

	run := func(sel float64, filtered bool) (float64, []types.Row, *exec.Context, error) {
		dimRows := int(sel * float64(factRows))
		if dimRows < 1 {
			dimRows = 1
		}
		cat, err := buildFilterPair(factRows, dimRows)
		if err != nil {
			return 0, nil, nil, err
		}
		fact, _ := cat.Table("fact")
		dim, _ := cat.Table("dim")

		mkScan := func(t *catalog.Table, alias string) *plan.ScanNode {
			s := &plan.ScanNode{Table: t, Alias: alias}
			s.Out = t.Schema.WithTable(alias)
			s.Title = "SeqScan(" + alias + ")"
			s.Prop = plan.Props{EstRows: float64(t.Heap.NumRows())}
			return s
		}
		l := mkScan(fact, "f")
		rr := mkScan(dim, "d")
		j := &plan.JoinNode{Alg: plan.JoinHash, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
		j.Kids = []plan.Node{l, rr}
		j.Out = l.Out.Concat(rr.Out)
		j.Title = "HashJoin"
		j.Prop = plan.Props{EstRows: float64(dimRows)}

		ctx := exec.NewContext()
		if filtered {
			o := opt.New(cat)
			if sites, _ := o.CreditRuntimeFilters(j); sites > 0 {
				ctx.RF = exec.NewRuntimeFilterSet(nil)
			}
		}
		rows, err := exec.Run(j, ctx)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("E24 sel=%g filtered=%v: %w", sel, filtered, err)
		}
		return ctx.Clock.Units(), rows, ctx, nil
	}

	canon := func(rows []types.Row) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			out = append(out, strings.Join(parts, "|"))
		}
		sort.Strings(out)
		return out
	}

	points := make([]FilterSweepPoint, 0, len(filterSweepSels))
	for _, sel := range filterSweepSels {
		base, refRows, _, err := run(sel, false)
		if err != nil {
			return nil, nil, err
		}
		units, rows, ctx, err := run(sel, true)
		if err != nil {
			return nil, nil, err
		}
		ref, got := canon(refRows), canon(rows)
		match := len(got) == len(ref)
		if match {
			for i := range got {
				if got[i] != ref[i] {
					match = false
					break
				}
			}
		}
		var built, tested, dropped, disabled int64
		if ctx.RF != nil {
			built, tested, dropped, disabled = ctx.RF.Snapshot()
		}
		points = append(points, FilterSweepPoint{
			Sel: sel, Unfiltered: base, Filtered: units, Ratio: base / units,
			Built: int(built), Tested: int(tested), Dropped: int(dropped),
			Disabled: int(disabled), Match: match,
		})
	}

	r := newReport("E24", "runtime join filter selectivity sweep")
	r.Printf("%6s %12s %12s %6s %6s %8s %8s %9s %6s",
		"sel", "base_units", "filt_units", "ratio", "built", "tested", "dropped", "disabled", "exact")
	allMatch := true
	selectiveWin, nonSelectiveBounded := true, true
	for _, p := range points {
		r.Printf("%6.3f %12.1f %12.1f %5.2fx %6d %8d %8d %9d %6v",
			p.Sel, p.Unfiltered, p.Filtered, p.Ratio, p.Built, p.Tested, p.Dropped, p.Disabled, p.Match)
		if !p.Match {
			allMatch = false
		}
		if p.Sel <= 0.01 && p.Ratio < 2 {
			selectiveWin = false
		}
		if p.Sel >= 0.9 && p.Filtered > 1.10*p.Unfiltered {
			nonSelectiveBounded = false
		}
	}
	r.Set("sels", float64(len(points)))
	r.Set("ratio_most_selective", points[0].Ratio)
	r.Set("overhead_join_all", points[len(points)-1].Filtered/points[len(points)-1].Unfiltered)
	setBool := func(k string, b bool) {
		v := 0.0
		if b {
			v = 1
		}
		r.Set(k, v)
	}
	setBool("all_exact", allMatch)
	setBool("selective_2x", selectiveWin)
	setBool("nonselective_bounded", nonSelectiveBounded)
	return r, points, nil
}

// buildFilterPair builds the fact x dim join pair for the filter sweep.
// Fact keys are unique 0..n-1; the m dim keys are spread as floor(i*n/m)
// so the filter's min/max bounds span the whole domain and the Bloom bits
// do the real work.
func buildFilterPair(n, m int) (*catalog.Catalog, error) {
	cat := catalog.New()
	fact, err := cat.CreateTable("fact", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cat.Insert(nil, fact, workload.IntRow(int64(i), int64(i%97)))
	}
	dim, err := cat.CreateTable("dim", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		cat.Insert(nil, dim, workload.IntRow(int64(i*n/m), int64(i%11)))
	}
	cat.AnalyzeTable(fact, 16)
	cat.AnalyzeTable(dim, 16)
	return cat, nil
}

// E24FilterSweep adapts FilterSweep to the registry's Runner signature.
func E24FilterSweep(scale float64) (*Report, error) {
	r, _, err := FilterSweep(scale)
	return r, err
}
