package experiments

import (
	"rqp/internal/storage"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// E22UtilityInterference implements the Session-4.2 measurement: how much
// does a database utility (here an index build, the canonical example)
// interfere with concurrent query processing? The utility's and the query's
// costs are measured on the engine, then their contention simulated under
// processor sharing — alone, concurrent without control, and with the
// utility demoted to a background (throttled, low-priority) job.
func E22UtilityInterference(scale float64) (*Report, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1.5 * scale, Seed: 9})
	if err != nil {
		return nil, err
	}

	// Measure the index build's cost on the clock.
	buildClk := storage.NewClock(storage.DefaultCostModel())
	if _, err := cat.CreateIndex(buildClk, "lineitem", "tmp_build", []string{"l_partkey"}, false); err != nil {
		return nil, err
	}
	buildCost := buildClk.Units()
	if err := cat.DropIndex("lineitem", "tmp_build"); err != nil {
		return nil, err
	}
	// The utility job models a maintenance window — rebuild every index and
	// refresh statistics — so it outlives any single query (throttling only
	// matters for utilities long enough to overlap whole queries).
	maintenanceCost := buildCost * 8

	// Measure a representative query's cost.
	q3, err := execute(cat, defaults(), sqls(workload.TPCHQueries()["Q3"])...)
	if err != nil {
		return nil, err
	}
	queryCost := q3.cost()

	const procs = 4
	alone := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "query", Cost: queryCost, MaxDOP: 4},
	}, procs, 0)
	concurrent := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "query", Cost: queryCost, MaxDOP: 4},
		{ID: "utility", Cost: maintenanceCost, MaxDOP: 4},
	}, procs, 0)
	// Background policy: the utility runs at one processor behind an MPL
	// gate that exempts queries ("truly online" utility execution).
	throttled := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "query", Cost: queryCost, MaxDOP: 4, Priority: 5, Exempt: true},
		{ID: "utility", Cost: maintenanceCost, MaxDOP: 1, Priority: 1},
	}, procs, 1)

	r := newReport("E22", "utility interference: index build vs concurrent query (extension)")
	r.Printf("index build cost=%.1f (maintenance window %.1f)  query cost=%.1f", buildCost, maintenanceCost, queryCost)
	qa, qc, qt := response(alone, "query"), response(concurrent, "query"), response(throttled, "query")
	r.Printf("query alone:               resp=%.1f", qa)
	r.Printf("query vs full-speed build: resp=%.1f (%.2fx)", qc, qc/qa)
	r.Printf("query vs throttled build:  resp=%.1f (%.2fx)", qt, qt/qa)
	r.Printf("throttled build finishes at %.1f (vs %.1f full speed)",
		response(throttled, "utility"), response(concurrent, "utility"))
	r.Set("interference_uncontrolled", qc/qa)
	r.Set("interference_throttled", qt/qa)
	r.Set("build_cost", buildCost)
	return r, nil
}
