package core

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// plannedCounters are the counters no statement record feeds: plan-cache
// lookups and the plan modes armed, counted as each statement is planned.
var plannedCounters = map[string]bool{
	"rqp_plan_cache_hits_total": true, "rqp_plan_cache_misses_total": true, "rqp_rio_choices_total": true,
	"rqp_parallel_queries_total": true, "rqp_filter_queries_total": true, "rqp_shuffle_queries_total": true,
}

// recordSums is what the records of a run add up to, keyed as /metrics
// prints each counter series: the record is the one source of the rqp_*
// counters, so the two must agree.
func recordSums(recs []obs.QueryRecord) map[string]int64 {
	sums := map[string]int64{}
	add := func(series string, v int64) {
		if v != 0 {
			sums[series] += v
		}
	}
	for _, r := range recs {
		add(`rqp_queries_finished_total{outcome="`+r.Outcome+`"}`, 1)
		add("rqp_wlm_admitted_total", int64(r.Admissions))
		if r.Outcome == "rejected" {
			add("rqp_wlm_rejected_total", 1)
		}
		if r.Outcome != "done" {
			continue
		}
		add(`rqp_queries_total{policy="`+r.Policy+`"}`, 1)
		add("rqp_reopts_total", int64(r.Reopts))
		add("rqp_mem_overcommit_total", int64(r.Overcommits))
		add("rqp_spill_partitions_total", int64(r.SpillParts))
		add("rqp_spill_rows_total", int64(r.SpillRows))
		add("rqp_spill_pages_written_total", int64(r.SpillPages))
		add("rqp_spill_merge_fallbacks_total", int64(r.SpillFallbacks))
		add("rqp_columnar_blocks_skipped", r.ColBlocksSkipped)
		add("rqp_columnar_blocks_scanned", r.ColBlocksScanned)
		add("rqp_columnar_heap_pages", r.ColHeapPages)
		add("rqp_filter_built_total", r.RFBuilt)
		add("rqp_filter_tested_total", r.RFTested)
		add("rqp_filter_dropped_total", r.RFDropped)
		add("rqp_filter_disabled_total", r.RFDisabled)
		if s := r.Shuffle; s != nil {
			add("rqp_shuffle_rows_moved_total", s.RowsMoved)
			add("rqp_shuffle_rows_broadcast_total", s.RowsBroadcast)
			add("rqp_shuffle_hot_keys_total", s.HotKeys)
			add("rqp_shuffle_hot_probe_dups_total", s.HotProbeDups)
			add("rqp_shuffle_degrades_total", s.Degrades)
			add(`rqp_shuffle_joins_total{mode="colocated"}`, s.ColocatedJoins)
			add(`rqp_shuffle_joins_total{mode="repartition"}`, s.RepartitionJoins)
			add(`rqp_shuffle_joins_total{mode="broadcast"}`, s.BroadcastJoins)
			add("rqp_shuffle_net_frames_total", s.NetFrames)
			add("rqp_shuffle_net_bytes_total", s.NetBytes)
			add("rqp_shuffle_net_rows_wire_total", s.NetRowsWire)
			add("rqp_shuffle_net_stalls_total", s.NetStalls)
			add("rqp_shuffle_net_fallbacks_total", s.NetFallbacks)
		}
	}
	return sums
}

// exposedCounters reads every counter series out of m's exposition.
func exposedCounters(t *testing.T, m *obs.Registry) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	counter := false
	for _, line := range strings.Split(m.Expose(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			counter = strings.HasSuffix(line, " counter")
			continue
		}
		if !counter || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestRecordsAddUpToMetrics runs a mixed set of statements — classic and
// POP, a spill at a 64-row budget, runtime filters, columnar at DOP 2 (a
// scan after an UPDATE among them), four shards, one admission rejection —
// on engines that share one metrics
// registry and one lifecycle registry, and checks that the records the
// query log received add up to every counter the run touched. Each of those
// counters must have been touched: a field the record's fill drops reads 0
// in the record and in the counter it feeds.
func TestRecordsAddUpToMetrics(t *testing.T) {
	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.25, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.DefaultStar()
	sc.FactRows = 7500
	star, err := workload.BuildStar(sc)
	if err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	lifecycle := obs.NewQueryRegistry(recentQueries, metrics)
	var recs []obs.QueryRecord
	lifecycle.SetSink(funcSink(func(rec obs.QueryRecord) { recs = append(recs, rec) }))
	attach := func(cat *catalog.Catalog, set func(*Config)) *Engine {
		cfg := DefaultConfig()
		set(&cfg)
		e := Attach(cat, cfg)
		e.Metrics, e.Lifecycle = metrics, lifecycle
		return e
	}
	q := workload.TPCHQueries()
	run := func(e *Engine, texts ...string) {
		t.Helper()
		for _, text := range texts {
			if _, err := e.Exec(text); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
		}
	}
	run(attach(tpch, func(*Config) {}), q["Q1"], q["Q3"])
	run(attach(tpch, func(c *Config) { c.MemBudgetRows = 64 }), q["Q3"], q["Q5"], q["Q10"])
	run(attach(tpch, func(c *Config) { c.RuntimeFilters = true }), q["Q3"], q["Q5"])
	run(attach(tpch, func(c *Config) { c.Shards = 4 }), q["Q3"], q["Q10"])
	run(attach(tpch, func(c *Config) { c.Shards, c.ShuffleForce = 4, plan.ShuffleBroadcast }), q["Q3"])
	pop := attach(star, func(c *Config) { c.Policy = PolicyPOP })
	for _, sq := range workload.StarWorkload(sc, 12, 0.5, 77) {
		run(pop, sq.SQL)
	}
	gate := wlm.NewAdmitter(1)
	gated := attach(tpch, func(c *Config) { c.Admission = gate })
	run(gated, q["Q6"])
	gate.TryAdmit()
	if _, err := gated.Exec(q["Q6"]); err == nil {
		t.Fatal("a full gate admitted the statement")
	}
	gate.Done()
	run(attach(tpch, func(c *Config) { c.Columnar, c.DOP = true, 2 }), q["Q1"], q["Q6"],
		"SELECT COUNT(*) FROM lineitem WHERE l_orderkey < 0",
		// A changed page: the next columnar scan of orders reads it from the heap.
		"UPDATE orders SET o_totalprice = 1.0 WHERE o_orderkey = 1",
		"SELECT COUNT(*) FROM orders WHERE o_orderdate < DATE(9000)")

	want := recordSums(recs)
	got := exposedCounters(t, metrics)
	for series, v := range got {
		name, _, _ := strings.Cut(series, "{")
		if plannedCounters[name] {
			continue
		}
		if want[series] != v {
			t.Errorf("%s = %d, the records add up to %d", series, v, want[series])
		}
	}
	for series, v := range want {
		if _, ok := got[series]; !ok {
			t.Errorf("the records add %d to %s, which /metrics does not list", v, series)
		}
	}
	for _, series := range []string{
		`rqp_queries_total{policy="classic"}`, `rqp_queries_total{policy="pop"}`,
		`rqp_queries_finished_total{outcome="done"}`, `rqp_queries_finished_total{outcome="rejected"}`,
		"rqp_wlm_admitted_total", "rqp_wlm_rejected_total", "rqp_reopts_total", "rqp_mem_overcommit_total",
		"rqp_spill_partitions_total", "rqp_spill_rows_total", "rqp_spill_pages_written_total",
		"rqp_columnar_blocks_skipped", "rqp_columnar_blocks_scanned", "rqp_columnar_heap_pages",
		"rqp_filter_built_total", "rqp_filter_tested_total", "rqp_filter_dropped_total", "rqp_filter_disabled_total",
		"rqp_shuffle_rows_moved_total", "rqp_shuffle_rows_broadcast_total",
		`rqp_shuffle_joins_total{mode="repartition"}`, `rqp_shuffle_joins_total{mode="broadcast"}`,
	} {
		if got[series] == 0 {
			t.Errorf("the run did not touch %s", series)
		}
	}
	done, cost := want[`rqp_queries_finished_total{outcome="done"}`], 0.0
	for _, r := range recs {
		if r.Outcome == "done" {
			cost += r.Cost
		}
	}
	// The histogram sums each sample in millionths.
	h := metrics.Histogram("rqp_query_cost_units", obs.CostBuckets)
	if h.Count() != done || math.Abs(h.Sum()-cost) > float64(done)*1e-6 {
		t.Errorf("rqp_query_cost_units observed %d statements summing to %v; %d finished, costing %v", h.Count(), h.Sum(), done, cost)
	}
	// Untraced, a classic statement's record has its plan's q-error too.
	for _, r := range recs {
		if r.Outcome == "done" && r.Policy == "classic" && (r.QErrorGeomean < 1 || r.Cost <= 0) {
			t.Errorf("%s: q-error geomean %v, cost %v; want both set", r.SQL, r.QErrorGeomean, r.Cost)
		}
	}
}
