package experiments

import (
	"fmt"
	"time"

	"rqp/internal/core"
	"rqp/internal/workload"
)

// DopSweepPoint is one rung of the parallel-execution robustness map: the
// TPC-H-lite suite run at one degree of parallelism. The morsel operators
// issue the same multiset of clock charges at any DOP, so total simulated
// cost is *identical* to serial at every rung — the sweep turns that
// invariant into a committed baseline so a regression in plan shapes or
// morsel cost accounting shows up against BENCH_parallel.json. Result rows
// are compared within a DOP (two runs at the same fan-out must hash alike),
// not across DOPs: parallel aggregation merges per-worker float partials in
// a different order than serial.
type DopSweepPoint struct {
	DOP    int     `json:"dop" gate:"key"`            // degree of parallelism (1 = serial reference)
	Units  float64 `json:"cost_units" gate:"tol"`     // total simulated cost for the suite (must equal serial)
	WallMS float64 `json:"wall_ms"`                   // wall-clock time (informational; machine-dependent)
	Match  bool    `json:"result_exact" gate:"never"` // two runs at this DOP produce identical results
}

// dopSweepDOPs is the fan-out ladder.
var dopSweepDOPs = axis{"dop", []float64{1, 2, 4, 8}, func(k *core.Config, v float64) { k.DOP = int(v) }}

// DopSweep runs the TPC-H-lite suite across the DOP ladder and returns
// the report plus the raw points (for rqpbench -sweep dop-sweep and the
// regression gate).
func DopSweep(scale float64) (*Report, []DopSweepPoint, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 23})
	if err != nil {
		return nil, nil, err
	}
	queries := workload.TPCHQueries()
	suite := sqls(queries["Q1"], queries["Q3"], queries["Q10"])
	floatCanon := 0
	var points []DopSweepPoint
	err = sweep(defaults(), []axis{dopSweepDOPs}, func(k core.Config, _ []float64) error {
		start := time.Now()
		first, err := execute(cat, k, suite...)
		if err != nil {
			return err
		}
		// Determinism check: worker interleaving must never leak into
		// results, so a second run at the same DOP must agree exactly.
		second, err := execute(cat, k, suite...)
		if err != nil {
			return err
		}
		points = append(points, DopSweepPoint{
			DOP: k.DOP, Units: first.cost(),
			WallMS: float64(time.Since(start).Microseconds()) / 1000,
			Match:  first.units == second.units && same(&floatCanon, first, second),
		})
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("E25 %w", err)
	}

	r := newReport("E25", "degree-of-parallelism sweep (cost-parity map)")
	r.Printf("%5s %12s %10s %6s", "dop", "cost_units", "wall_ms", "exact")
	allMatch, parity := true, true
	for _, p := range points {
		r.Printf("%5d %12.1f %10.2f %6v", p.DOP, p.Units, p.WallMS, p.Match)
		allMatch = allMatch && p.Match
		if p.Units != points[0].Units {
			parity = false
		}
	}
	r.Set("dops", float64(len(points)))
	r.Set("units_serial", points[0].Units)
	r.Set("float_canon_cells", float64(floatCanon))
	setReportBool(r, "all_exact", allMatch)
	setReportBool(r, "cost_parity", parity)
	return r, points, nil
}
