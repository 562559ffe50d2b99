package experiments

import (
	"fmt"

	"rqp/internal/core"
	"rqp/internal/workload"
)

// MemSweepPoint is one row of the memory-degradation robustness map: the
// TPC-H-lite suite executed under one workspace budget.
type MemSweepPoint struct {
	Budget     int     `json:"budget_rows" gate:"key"`    // workspace rows (unlimited: 1<<30)
	Units      float64 `json:"cost_units" gate:"tol"`     // total simulated cost for the suite
	Partitions int     `json:"spill_partitions"`          // spill partitions created
	SpillRows  int     `json:"spill_rows"`                // rows written to temp runs
	SpillPages int     `json:"spill_pages"`               // pages written to temp runs
	MaxDepth   int     `json:"recursion_depth"`           // deepest spill recursion reached
	Fallbacks  int     `json:"merge_fallbacks"`           // sort/merge fallbacks past the recursion bound
	Match      bool    `json:"result_exact" gate:"never"` // rows hash-equal to the unlimited run's (see MemSweep)
}

// memSweepBudgets is the budget ladder, ascending. The top rung never
// spills; each step down roughly quarters the workspace. The bottom rung is
// the broker's progress floor (a grant is never below min(want, 16)), the
// tightest budget that means anything: the suite's builds are dimension-side
// joins of a few dozen to a few hundred rows, so at small scales it is the
// only rung they exceed.
var memSweepBudgets = axis{"budget", []float64{16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, unlimited},
	func(k *core.Config, v float64) { k.MemBudgetRows = int(v) }}

// MemSweep runs the memory-degradation sweep and returns both the report
// and the raw points (for rqpbench -sweep mem-sweep and the DESIGN.md
// table). For every budget on the ladder the TPC-H-lite join/aggregate
// suite runs to completion; the point records total cost, spill activity,
// and whether the results stayed identical to the unlimited-budget run.
// Spilling replays a join's deferred partitions, and Q10's float SUMs then
// add in another order: those rungs match with floats at 6 significant
// digits, counted in float_canon_cells (see same).
func MemSweep(scale float64) (*Report, []MemSweepPoint, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 23})
	if err != nil {
		return nil, nil, err
	}
	queries := workload.TPCHQueries()
	suite := sqls(queries["Q1"], queries["Q3"], queries["Q10"])
	ladder := memSweepBudgets.values
	tightest := ladder[0]
	ref, err := execute(cat, defaults(), suite...)
	if err != nil {
		return nil, nil, err
	}

	floatCanon := 0
	points := make([]MemSweepPoint, 0, len(ladder))
	err = sweep(defaults(), []axis{memSweepBudgets}, func(k core.Config, _ []float64) error {
		got, err := execute(cat, k, suite...)
		if err != nil {
			return err
		}
		parts, srows, pages, depth, fb := got.ctx.Spill.Snapshot()
		points = append(points, MemSweepPoint{
			Budget: k.MemBudgetRows, Units: got.cost(), Partitions: parts, SpillRows: srows,
			SpillPages: pages, MaxDepth: depth, Fallbacks: fb, Match: same(&floatCanon, ref, got),
		})
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("E23 %w", err)
	}

	// Parallel degradation check: the tightest rung at DOP 4 must match an
	// unlimited DOP-4 run (the parallel operators trade their fan-out for
	// serial spill execution). The baseline is re-run at the same DOP —
	// the invariant under test is that memory pressure changes nothing,
	// not that DOP changes nothing.
	k := defaults()
	k.DOP = 4
	dopRef, err := execute(cat, k, suite...)
	if err != nil {
		return nil, nil, err
	}
	memSweepBudgets.set(&k, tightest)
	dopGot, err := execute(cat, k, suite...)
	if err != nil {
		return nil, nil, err
	}
	dopMatch := same(&floatCanon, dopRef, dopGot)
	dopParts, _, _, _, _ := dopGot.ctx.Spill.Snapshot()

	r := newReport("E23", "memory-degradation sweep (robustness map)")
	r.Printf("%10s %12s %6s %8s %7s %6s %5s %6s",
		"budget", "cost_units", "parts", "rows", "pages", "depth", "fb", "exact")
	allMatch := true
	monotone := true
	for i, p := range points {
		label := fmt.Sprintf("%d", p.Budget)
		if p.Budget == unlimited {
			label = "unlimited"
		}
		r.Printf("%10s %12.1f %6d %8d %7d %6d %5d %6v",
			label, p.Units, p.Partitions, p.SpillRows, p.SpillPages, p.MaxDepth, p.Fallbacks, p.Match)
		allMatch = allMatch && p.Match
		if i > 0 && points[i].Units > points[i-1].Units+1e-9 {
			monotone = false
		}
	}
	r.Printf("DOP=4 @ budget %g: parts=%d exact=%v", tightest, dopParts, dopMatch)
	r.Set("budgets", float64(len(points)))
	r.Set("units_unlimited", points[len(points)-1].Units)
	r.Set("units_tightest", points[0].Units)
	r.Set("degradation_ratio", points[0].Units/points[len(points)-1].Units)
	r.Set("float_canon_cells", float64(floatCanon))
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "monotone", monotone)
	setReportBool(r, "dop4_exact", dopMatch && dopParts > 0)
	return r, points, nil
}
