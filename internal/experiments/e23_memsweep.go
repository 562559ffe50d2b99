package experiments

import (
	"fmt"
	"sort"
	"strings"

	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// MemSweepPoint is one row of the memory-degradation robustness map: the
// TPC-H-lite suite executed under one workspace budget.
type MemSweepPoint struct {
	Budget     int     `json:"budget_rows" gate:"key"`    // workspace rows (1<<30 plays the role of unlimited)
	Units      float64 `json:"cost_units" gate:"tol"`     // total simulated cost for the suite
	Partitions int     `json:"spill_partitions"`          // spill partitions created
	SpillRows  int     `json:"spill_rows"`                // rows written to temp runs
	SpillPages int     `json:"spill_pages"`               // pages written to temp runs
	MaxDepth   int     `json:"recursion_depth"`           // deepest spill recursion reached
	Fallbacks  int     `json:"merge_fallbacks"`           // sort/merge fallbacks past the recursion bound
	Match      bool    `json:"result_exact" gate:"never"` // results equal to the unlimited run (floats at 6 digits)
}

// memSweepBudgets is the budget ladder, ascending. The top rung never
// spills; each step down roughly quarters the workspace. The bottom rung is
// the broker's progress floor (a grant is never below min(want, 16)), the
// tightest budget that means anything: the suite's builds are dimension-side
// joins of a few dozen to a few hundred rows, so at small scales it is the
// only rung they exceed.
var memSweepBudgets = []int{16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 30}

// MemSweep runs the memory-degradation sweep and returns both the report
// and the raw points (for rqpbench -mem-sweep and the DESIGN.md table).
// For every budget on the ladder the TPC-H-lite join/aggregate suite runs
// to completion; the point records total cost, spill activity, and whether
// the results stayed identical to the unlimited-budget run (float columns
// compared at 6 significant digits — see canon below).
func MemSweep(scale float64) (*Report, []MemSweepPoint, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 23})
	if err != nil {
		return nil, nil, err
	}
	suite := []string{"Q1", "Q3", "Q10"}
	queries := workload.TPCHQueries()

	runSuite := func(budget, dop int) (float64, [][]types.Row, *exec.Context, error) {
		ctx := exec.NewContext()
		ctx.Mem = exec.NewMemBroker(budget)
		if dop > 1 {
			ctx.DOP = dop
		}
		var results [][]types.Row
		for _, name := range suite {
			o := opt.New(cat)
			o.Opt.MemBudgetRows = budget
			st, err := sql.Parse(queries[name])
			if err != nil {
				return 0, nil, nil, err
			}
			bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
			if err != nil {
				return 0, nil, nil, err
			}
			root, err := o.Optimize(bq, nil)
			if err != nil {
				return 0, nil, nil, err
			}
			rows, err := exec.Run(root, ctx)
			if err != nil {
				return 0, nil, nil, fmt.Errorf("E23 %s budget=%d: %w", name, budget, err)
			}
			results = append(results, rows)
		}
		return ctx.Clock.Units(), results, ctx, nil
	}

	// canon renders results with floats rounded to 6 significant digits.
	// Spilling reorders a join's output (deferred partition matches emit
	// after resident ones) and parallel aggregation merges per-worker
	// partials, so float sums downstream agree to rounding error rather
	// than to the last bit — exactly as in production engines. The strict
	// byte-identical guarantee is asserted where it genuinely holds, on
	// exactly-representable aggregates, by the exec-level property test
	// (TestSpillPropertyAcrossBudgets).
	canon := func(results [][]types.Row) []string {
		var out []string
		for qi, rows := range results {
			for _, r := range rows {
				parts := make([]string, len(r))
				for i, v := range r {
					if v.K == types.KindFloat {
						parts[i] = fmt.Sprintf("%.6g", v.F)
					} else {
						parts[i] = v.String()
					}
				}
				out = append(out, fmt.Sprintf("q%d:%s", qi, strings.Join(parts, "|")))
			}
		}
		sort.Strings(out)
		return out
	}

	unlimited := memSweepBudgets[len(memSweepBudgets)-1]
	_, refRows, _, err := runSuite(unlimited, 1)
	if err != nil {
		return nil, nil, err
	}
	ref := canon(refRows)

	points := make([]MemSweepPoint, 0, len(memSweepBudgets))
	for _, budget := range memSweepBudgets {
		units, rows, ctx, err := runSuite(budget, 1)
		if err != nil {
			return nil, nil, err
		}
		got := canon(rows)
		match := len(got) == len(ref)
		if match {
			for i := range got {
				if got[i] != ref[i] {
					match = false
					break
				}
			}
		}
		parts, srows, pages, depth, fb := ctx.Spill.Snapshot()
		points = append(points, MemSweepPoint{
			Budget: budget, Units: units, Partitions: parts, SpillRows: srows,
			SpillPages: pages, MaxDepth: depth, Fallbacks: fb, Match: match,
		})
	}

	// Parallel degradation check: the tightest rung at DOP 4 must match an
	// unlimited DOP-4 run (the parallel operators trade their fan-out for
	// serial spill execution). The baseline is re-run at the same DOP —
	// the invariant under test is that memory pressure changes nothing,
	// not that DOP changes nothing.
	_, dopRefRows, _, err := runSuite(unlimited, 4)
	if err != nil {
		return nil, nil, err
	}
	dopRef := canon(dopRefRows)
	_, dopRows, dopCtx, err := runSuite(memSweepBudgets[0], 4)
	if err != nil {
		return nil, nil, err
	}
	dopGot := canon(dopRows)
	dopMatch := len(dopGot) == len(dopRef)
	if dopMatch {
		for i := range dopGot {
			if dopGot[i] != dopRef[i] {
				dopMatch = false
				break
			}
		}
	}
	dopParts, _, _, _, _ := dopCtx.Spill.Snapshot()

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
		if !p.Match {
			allMatch = false
		}
		if i > 0 && points[i].Units > points[i-1].Units+1e-9 {
			monotone = false
		}
	}
	r.Printf("DOP=4 @ budget %d: parts=%d exact=%v", memSweepBudgets[0], dopParts, dopMatch)
	r.Set("budgets", float64(len(points)))
	r.Set("units_unlimited", points[len(points)-1].Units)
	r.Set("units_tightest", points[0].Units)
	r.Set("degradation_ratio", points[0].Units/points[len(points)-1].Units)
	setBool := func(k string, b bool) {
		v := 0.0
		if b {
			v = 1
		}
		r.Set(k, v)
	}
	setBool("all_exact", allMatch)
	setBool("monotone", monotone)
	setBool("dop4_exact", dopMatch && dopParts > 0)
	return r, points, nil
}

// E23MemSweep adapts MemSweep to the registry's Runner signature.
func E23MemSweep(scale float64) (*Report, error) {
	r, _, err := MemSweep(scale)
	return r, err
}
