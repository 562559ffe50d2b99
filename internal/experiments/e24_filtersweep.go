package experiments

import (
	"fmt"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// FilterSweepPoint is one row of the runtime-filter robustness map: a fact
// x dim hash join executed with and without runtime join filters at one
// build-side selectivity.
type FilterSweepPoint struct {
	Sel        float64 `json:"selectivity" gate:"key"`      // fraction of fact keys present on the build side
	Unfiltered float64 `json:"unfiltered_units" gate:"tol"` // simulated cost without runtime filters
	Filtered   float64 `json:"filtered_units" gate:"tol"`   // simulated cost with runtime filters armed
	Ratio      float64 `json:"ratio"`                       // Unfiltered / Filtered (>1 means the filter won)
	Built      int     `json:"filters_built"`               // filters published after the build phase
	Tested     int     `json:"rows_tested"`                 // probe rows that paid a membership test
	Dropped    int     `json:"rows_dropped"`                // probe rows rejected before full per-row cost
	Disabled   int     `json:"filters_disabled"`            // filters that disabled themselves mid-query
	Match      bool    `json:"result_exact" gate:"never"`   // filtered results byte-identical to unfiltered
}

// filterSweepSels is the selectivity ladder: from needle-in-a-haystack
// joins (filters should dominate) to join-everything (filters must get out
// of the way via adaptive disable). The value picks the dim table's size.
var filterSweepSels = axis{"sel", []float64{0.001, 0.01, 0.1, 0.5, 0.9, 1.0}, nil}

// FilterSweep runs the runtime-filter selectivity sweep and returns both
// the report and the raw points (for rqpbench -sweep filter-sweep and the
// DESIGN.md table). The fact table holds N unique keys; the dim table
// holds sel*N of them, spread evenly so min/max bounds alone cannot do the
// filtering. The join is built by hand as JoinHash with fact as the probe
// side, exactly the shape plan.PlanRuntimeFilters targets. The robustness
// claim: at sel <= 1% the filtered plan is at least 2x cheaper, and at sel
// >= 90% adaptive disable keeps the overhead within 10% — with results
// identical everywhere.
func FilterSweep(scale float64) (*Report, []FilterSweepPoint, error) {
	factRows := scaleInt(20000, scale)
	floatCanon := 0
	var points []FilterSweepPoint
	err := sweep(defaults(), []axis{filterSweepSels}, func(k core.Config, at []float64) error {
		sel := at[0]
		dimRows := max(1, int(sel*float64(factRows)))
		runs := [2]*run{}
		for i, rf := range []bool{false, true} {
			cat, err := buildFilterPair(factRows, dimRows)
			if err != nil {
				return err
			}
			fact, _ := cat.Table("fact")
			dim, _ := cat.Table("dim")
			k.RuntimeFilters = rf
			j := joinNode(plan.JoinHash, fact, "f", dim, "d", float64(dimRows))
			if runs[i], err = execute(cat, k, stmt{root: j}); err != nil {
				return fmt.Errorf("filtered=%v: %w", rf, err)
			}
		}
		base, got := runs[0], runs[1]
		p := FilterSweepPoint{Sel: sel, Unfiltered: base.cost(), Filtered: got.cost(), Ratio: base.cost() / got.cost(),
			Match: same(&floatCanon, base, got)}
		p.Built, p.Tested, p.Dropped, p.Disabled = int(got.rec.RFBuilt), int(got.rec.RFTested), int(got.rec.RFDropped), int(got.rec.RFDisabled)
		points = append(points, p)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("E24 %w", err)
	}

	r := newReport("E24", "runtime join filter selectivity sweep")
	r.Printf("%6s %12s %12s %6s %6s %8s %8s %9s %6s",
		"sel", "base_units", "filt_units", "ratio", "built", "tested", "dropped", "disabled", "exact")
	allMatch := true
	selectiveWin, nonSelectiveBounded := true, true
	for _, p := range points {
		r.Printf("%6.3f %12.1f %12.1f %5.2fx %6d %8d %8d %9d %6v",
			p.Sel, p.Unfiltered, p.Filtered, p.Ratio, p.Built, p.Tested, p.Dropped, p.Disabled, p.Match)
		allMatch = allMatch && p.Match
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
	r.Set("float_canon_cells", float64(floatCanon))
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "selective_2x", selectiveWin)
	setReportBool(r, "nonselective_bounded", nonSelectiveBounded)
	return r, points, nil
}

// buildFilterPair builds the fact x dim join pair for the filter sweep.
// Fact keys are unique 0..n-1; the m dim keys are spread as floor(i*n/m)
// so the filter's min/max bounds span the whole domain and the Bloom bits
// do the real work.
func buildFilterPair(n, m int) (*catalog.Catalog, error) {
	cat := catalog.New()
	if _, err := addTable(cat, "fact", intCols("k", "v"), n, 16, func(i int) types.Row {
		return workload.IntRow(int64(i), int64(i%97))
	}); err != nil {
		return nil, err
	}
	_, err := addTable(cat, "dim", intCols("k", "w"), m, 16, func(i int) types.Row {
		return workload.IntRow(int64(i*n/m), int64(i%11))
	})
	return cat, err
}
