package experiments

import (
	"math"
	"strings"
	"testing"
)

// runE executes one experiment at reduced scale.
func runE(t *testing.T, id string, scale float64) *Report {
	t.Helper()
	r, err := Registry()[id](scale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id || len(r.Lines) == 0 {
		t.Fatalf("%s: malformed report %+v", id, r)
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range IDs() {
		if reg[id] == nil {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != 30 {
		t.Errorf("expected 30 experiments, got %d", len(IDs()))
	}
}

func TestE19SelfTuningTracksDrift(t *testing.T) {
	r := runE(t, "E19", 0.3)
	if r.KV["phase1_selftuning"] >= r.KV["phase1_static"]*2 {
		t.Errorf("after feedback the self-tuning histogram should be competitive: self=%v static=%v",
			r.KV["phase1_selftuning"], r.KV["phase1_static"])
	}
	if r.KV["drift_selftuning"] >= r.KV["drift_static"] {
		t.Errorf("under drift self-tuning must beat the stale static histogram: self=%v static=%v",
			r.KV["drift_selftuning"], r.KV["drift_static"])
	}
}

func TestE20SharedScanSaving(t *testing.T) {
	r := runE(t, "E20", 0.3)
	if r.KV["saving_8_consumers"] < 7 {
		t.Errorf("8 shared consumers should save ~8x page reads: %v", r.KV["saving_8_consumers"])
	}
}

func TestE21AutomaticDisaster(t *testing.T) {
	r := runE(t, "E21", 0.4)
	if r.KV["plan_changed"] != 1 {
		t.Errorf("the statistics refresh should flip the plan:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["cost_after"] <= 0 || r.KV["cost_before"] <= 0 {
		t.Error("costs must be recorded")
	}
}

// TestE1Fig1Shape asserts the POP Figure 1 shape: POP compresses the upper
// tail of response times without hurting the median much.
func TestE1Fig1Shape(t *testing.T) {
	r := runE(t, "E1", 0.3)
	if r.KV["pop_max"] >= r.KV["standard_max"] {
		t.Errorf("POP should cut the worst case: pop_max=%v standard_max=%v",
			r.KV["pop_max"], r.KV["standard_max"])
	}
	if r.KV["pop_median"] > r.KV["standard_median"]*1.5 {
		t.Errorf("POP median should stay comparable: %v vs %v",
			r.KV["pop_median"], r.KV["standard_median"])
	}
}

// TestE2Fig2Shape: most queries improve modestly or not at all, some
// improve dramatically, regressions are few.
func TestE2Fig2Shape(t *testing.T) {
	r := runE(t, "E2", 0.3)
	if r.KV["improved"] == 0 {
		t.Error("some queries should improve under POP")
	}
	if r.KV["best_speedup"] < 1.5 {
		t.Errorf("problem queries should speed up substantially: best=%v", r.KV["best_speedup"])
	}
	if r.KV["regressions"] > r.KV["improved"] {
		t.Errorf("regressions (%v) should not outnumber improvements (%v)",
			r.KV["regressions"], r.KV["improved"])
	}
}

func TestE3Fig3Shape(t *testing.T) {
	r := runE(t, "E3", 0.3)
	if r.KV["below_diagonal"] == 0 {
		t.Error("scatter should show points below the diagonal (improvements)")
	}
}

func TestE4RiskMetrics(t *testing.T) {
	r := runE(t, "E4", 0.3)
	if r.KV["metric2"] < r.KV["metric1"] {
		t.Errorf("Metric2 sums over more plans than Metric1: m1=%v m2=%v",
			r.KV["metric1"], r.KV["metric2"])
	}
	if r.KV["metric1"] <= 0 {
		t.Error("the correlation trap should produce visible cardinality error")
	}
	if r.KV["metric3"] < 0 {
		t.Error("Metric3 must be non-negative")
	}
}

func TestE5SmoothnessShape(t *testing.T) {
	r := runE(t, "E5", 0.3)
	if r.KV["diagram_plans"] < 2 {
		t.Error("sweep should cross an index/scan boundary")
	}
	if r.KV["anorexic_plans"] > r.KV["diagram_plans"] {
		t.Error("anorexic reduction must not add plans")
	}
	if r.KV["s_classic"] > r.KV["s_index_always"] {
		t.Errorf("classic optimizer should be smoother than index-always: %v vs %v",
			r.KV["s_classic"], r.KV["s_index_always"])
	}
}

func TestE6CardErr(t *testing.T) {
	r := runE(t, "E6", 0.5)
	if r.KV["qerr_geo"] < 1 {
		t.Error("geometric q-error is >= 1 by definition")
	}
	if r.KV["cq"] < 0 {
		t.Error("C(Q) must be non-negative")
	}
}

// TestE7EquivalenceIdeal: the engine normalizes predicates, so every pack
// should plan identically and cost spreads should be ~1.
func TestE7EquivalenceIdeal(t *testing.T) {
	r := runE(t, "E7", 0.5)
	if r.KV["total_distinct_plans"] != r.KV["packs"] {
		t.Errorf("every pack should collapse to one plan: %v plans for %v packs\n%s",
			r.KV["total_distinct_plans"], r.KV["packs"], strings.Join(r.Lines, "\n"))
	}
	if r.KV["worst_cost_spread"] > 1.05 {
		t.Errorf("equivalent queries should cost the same: spread=%v", r.KV["worst_cost_spread"])
	}
}

func TestE8TractorPull(t *testing.T) {
	r := runE(t, "E8", 0.2)
	if r.KV["classic_score"] < 1 {
		t.Error("the system should survive at least one level")
	}
}

func TestE9Extrinsic(t *testing.T) {
	r := runE(t, "E9", 0.3)
	if r.KV["intrinsic"] < 1 {
		t.Errorf("memory collapse should raise even the ideal cost: %v", r.KV["intrinsic"])
	}
	if r.KV["extrinsic"] < 0 {
		t.Error("extrinsic variability must be non-negative")
	}
}

func TestE10FMTEnvelope(t *testing.T) {
	r := runE(t, "E10", 0.3)
	if r.KV["ubl"] >= r.KV["lbl"] {
		t.Errorf("full memory should beat min memory: ubl=%v lbl=%v", r.KV["ubl"], r.KV["lbl"])
	}
	// The schedules must cross the spill knee, not sit on one side of it.
	for _, k := range []string{"declining", "oscillating"} {
		if r.KV[k] <= r.KV["ubl"] || r.KV[k] >= r.KV["lbl"] {
			t.Errorf("%s schedule never felt the pressure: %v outside (%v, %v)", k, r.KV[k], r.KV["ubl"], r.KV["lbl"])
		}
	}
	if r.KV["in_envelope"] != 1 {
		t.Errorf("fluctuating schedules should stay within the envelope:\n%s",
			strings.Join(r.Lines, "\n"))
	}
}

func TestE11FPT(t *testing.T) {
	r := runE(t, "E11", 1)
	if r.KV["ubl"] >= r.KV["lbl"] {
		t.Error("DOP=8 should beat DOP=1")
	}
	if r.KV["worst_interference"] <= r.KV["ubl"] {
		t.Error("interference should slow Qi down")
	}
	if r.KV["in_envelope"] != 1 {
		t.Error("interference should stay within [UBL, LBL]")
	}
}

func TestE12Advisor(t *testing.T) {
	r := runE(t, "E12", 0.4)
	if r.KV["indexes"] < 1 {
		t.Error("advisor should build at least one index")
	}
	if r.KV["robustness"] < 0 {
		t.Error("robustness metric must be non-negative")
	}
}

// TestE13CrackingShape: cracking's cumulative cost beats scanning; its
// late queries approach the full index; the full index's first query (with
// build) dwarfs later ones.
func TestE13CrackingShape(t *testing.T) {
	r := runE(t, "E13", 0.2)
	if r.KV["cum_crack"] >= r.KV["cum_scan"] {
		t.Errorf("cracking should beat scan cumulatively: crack=%v scan=%v",
			r.KV["cum_crack"], r.KV["cum_scan"])
	}
	if r.KV["last_crack"] >= r.KV["first_crack"] {
		t.Errorf("cracking should converge: first=%v last=%v",
			r.KV["first_crack"], r.KV["last_crack"])
	}
	if r.KV["cum_adaptive-merge"] >= r.KV["cum_scan"] {
		t.Errorf("adaptive merging should beat scan: %v vs %v",
			r.KV["cum_adaptive-merge"], r.KV["cum_scan"])
	}
}

func TestE14TPCCH(t *testing.T) {
	r := runE(t, "E14", 0.5)
	if r.KV["wlm_tx_improvement"] < 1 {
		t.Errorf("WLM should protect transaction response: %v", r.KV["wlm_tx_improvement"])
	}
}

// TestE15WarStory: independence underestimates the redundant-predicate
// query by a large factor; correlation-aware estimation is near-exact.
func TestE15WarStory(t *testing.T) {
	r := runE(t, "E15", 0.5)
	if r.KV["indep_underestimate_factor"] < 5 {
		t.Errorf("independence should underestimate badly: factor=%v",
			r.KV["indep_underestimate_factor"])
	}
	if r.KV["corr_error_factor"] > 3 {
		t.Errorf("correlation-aware estimate should be close: factor=%v",
			r.KV["corr_error_factor"])
	}
	if r.KV["maxent_error_factor"] > 3 {
		t.Errorf("maxent with joint constraint should be close: factor=%v",
			r.KV["maxent_error_factor"])
	}
}

// TestE16GJoinRobust: the g-join's worst-case regret is far below NL's.
func TestE16GJoinRobust(t *testing.T) {
	r := runE(t, "E16", 0.3)
	if r.KV["regret_gjoin"] >= r.KV["regret_nl"] {
		t.Errorf("gjoin regret (%v) should be far below NL regret (%v)",
			r.KV["regret_gjoin"], r.KV["regret_nl"])
	}
	if r.KV["regret_gjoin"] > 3 {
		t.Errorf("gjoin should never be catastrophically wrong: %v", r.KV["regret_gjoin"])
	}
}

func TestE17EddySaves(t *testing.T) {
	r := runE(t, "E17", 0.3)
	if r.KV["saving_fraction"] <= 0 {
		t.Errorf("eddy should save evaluations under drift: %v", r.KV["saving_fraction"])
	}
	if r.KV["reorders"] == 0 {
		t.Error("drift should force reorders")
	}
}

func TestE18Spectrum(t *testing.T) {
	r := runE(t, "E18", 0.3)
	if r.KV["rio_worst"] <= 0 || r.KV["pop_worst"] <= 0 {
		t.Error("all systems should report costs")
	}
	// The adaptive systems should not have a *worse* worst case than classic.
	if r.KV["pop_worst"] > r.KV["classic_worst"]*1.3 {
		t.Errorf("POP worst case should not blow up: pop=%v classic=%v",
			r.KV["pop_worst"], r.KV["classic_worst"])
	}
}

func TestE22UtilityInterference(t *testing.T) {
	r := runE(t, "E22", 0.4)
	if r.KV["interference_uncontrolled"] <= 1 {
		t.Errorf("a full-speed index build should slow the query: %v", r.KV["interference_uncontrolled"])
	}
	if r.KV["interference_throttled"] >= r.KV["interference_uncontrolled"] {
		t.Errorf("throttling the utility should reduce interference: throttled=%v uncontrolled=%v",
			r.KV["interference_throttled"], r.KV["interference_uncontrolled"])
	}
}

func TestE7LiteralVsParam(t *testing.T) {
	r := runE(t, "E7", 0.4)
	if r.KV["literal_vs_param_spread"] > 1.05 {
		t.Errorf("literal and parameterized spellings should cost the same: %v",
			r.KV["literal_vs_param_spread"])
	}
}

func TestReportString(t *testing.T) {
	r := newReport("EX", "test")
	r.Printf("line %d", 1)
	r.Set("k", 2)
	s := r.String()
	if !strings.Contains(s, "EX") || !strings.Contains(s, "line 1") || !strings.Contains(s, "k = 2") {
		t.Errorf("report render wrong:\n%s", s)
	}
}

func TestE24FilterSweepWinsAndBoundsOverhead(t *testing.T) {
	r, points, err := FilterSweep(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.KV["all_exact"] != 1 {
		t.Errorf("runtime filters changed results:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["selective_2x"] != 1 {
		t.Errorf("selective joins (<=1%% hit rate) must be at least 2x cheaper:\n%s",
			strings.Join(r.Lines, "\n"))
	}
	if r.KV["nonselective_bounded"] != 1 {
		t.Errorf("adaptive disable must bound overhead to 10%% on join-everything:\n%s",
			strings.Join(r.Lines, "\n"))
	}
	if len(points) < 5 {
		t.Fatalf("expected a selectivity ladder, got %d points", len(points))
	}
	most, least := points[0], points[len(points)-1]
	if most.Dropped == 0 || most.Disabled != 0 {
		t.Errorf("most selective point must drop rows and stay enabled: %+v", most)
	}
	if least.Disabled == 0 {
		t.Errorf("join-everything point must adaptively disable its filter: %+v", least)
	}
}

func TestE23MemSweepMonotoneAndExact(t *testing.T) {
	r, points, err := MemSweep(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if r.KV["all_exact"] != 1 {
		t.Errorf("results diverged across budgets:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["monotone"] != 1 {
		t.Errorf("cost must degrade monotonically with budget:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["dop4_exact"] != 1 {
		t.Errorf("DOP-4 run under pressure must spill and stay exact:\n%s", strings.Join(r.Lines, "\n"))
	}
	if len(points) < 5 {
		t.Fatalf("expected a budget ladder, got %d points", len(points))
	}
	tight, loose := points[0], points[len(points)-1]
	if tight.Partitions == 0 || tight.SpillPages == 0 {
		t.Errorf("tightest budget must spill: %+v", tight)
	}
	if loose.Partitions != 0 {
		t.Errorf("unlimited budget must not spill: %+v", loose)
	}
	if tight.Units <= loose.Units {
		t.Errorf("spilling must cost more: tight=%v loose=%v", tight.Units, loose.Units)
	}
}

func TestE25DopSweepCostParity(t *testing.T) {
	r, points, err := DopSweep(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r.KV["all_exact"] != 1 {
		t.Errorf("parallel results diverged from serial:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["cost_parity"] != 1 {
		t.Errorf("parallel cost must equal serial cost at every DOP:\n%s", strings.Join(r.Lines, "\n"))
	}
	if len(points) != 4 {
		t.Fatalf("expected the DOP 1/2/4/8 ladder, got %d points", len(points))
	}
	for _, p := range points {
		if p.Units != points[0].Units {
			t.Errorf("DOP %d cost %v != serial %v", p.DOP, p.Units, points[0].Units)
		}
		if !p.Match {
			t.Errorf("DOP %d results differ from serial", p.DOP)
		}
	}
}

func TestE27ColumnarSweepWinsAndBoundsOverhead(t *testing.T) {
	r, points, err := ColumnarSweep(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.KV["all_exact"] != 1 {
		t.Errorf("columnar results diverged from heap path:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["selective_1_5x"] != 1 {
		t.Errorf("selective scans (<=10%% selectivity) must be at least 1.5x cheaper:\n%s",
			strings.Join(r.Lines, "\n"))
	}
	if r.KV["fullscan_bounded"] != 1 {
		t.Errorf("full scans must stay within 5%% of heap cost:\n%s", strings.Join(r.Lines, "\n"))
	}
	if len(points) != 12 {
		t.Fatalf("expected 3 encodings x 4 selectivities, got %d points", len(points))
	}
	for _, p := range points {
		if p.Sel < 1 && p.BlocksSkipped == 0 {
			t.Errorf("%s sel=%g: zone maps skipped nothing", p.Encoding, p.Sel)
		}
		if p.Sel >= 1 && p.BlocksSkipped != 0 {
			t.Errorf("%s sel=%g: full scan skipped %d blocks", p.Encoding, p.Sel, p.BlocksSkipped)
		}
	}
}

func TestE28ShardSweepInvariants(t *testing.T) {
	r := runE(t, "E28", 0.25)
	if r.KV["all_exact"] != 1 {
		t.Errorf("sharded runs must stay byte- and cost-exact:\n%s", strings.Join(r.Lines, "\n"))
	}
	if r.KV["uniform_speedup_4"] <= 1 {
		t.Errorf("4-shard makespan should beat single-shard: speedup=%v", r.KV["uniform_speedup_4"])
	}
	if r.KV["broadcast_chosen"] != 1 || r.KV["broadcast_wins"] != 1 {
		t.Errorf("small build side: broadcast should be chosen and win (chosen=%v wins=%v)",
			r.KV["broadcast_chosen"], r.KV["broadcast_wins"])
	}
	if s, ns := r.KV["skew_worst_over_mean_split"], r.KV["skew_worst_over_mean_nosplit"]; s >= ns {
		t.Errorf("hot-key splitting should flatten the worst/mean shard ratio: split=%v nosplit=%v", s, ns)
	}
	if r.KV["colocated_rows_moved"] != 0 {
		t.Errorf("colocated joins moved %v rows", r.KV["colocated_rows_moved"])
	}
	if r.KV["tractor_exact"] != 1 {
		t.Errorf("E8 chain queries must stay exact under sharding")
	}
	if r.KV["fpt_in_envelope"] != 1 {
		t.Errorf("E11 envelope must hold on the sharded makespan")
	}
}

func TestE29ServerSweepInvariants(t *testing.T) {
	r := runE(t, "E29", 0.25)
	if r.KV["points"] != 3 {
		t.Errorf("expected 3 concurrency points, got %v", r.KV["points"])
	}
	if r.KV["all_exact"] != 1 {
		t.Errorf("every wire result must match the in-process reference with zero admit timeouts:\n%s",
			strings.Join(r.Lines, "\n"))
	}
	if r.KV["qps_at_mpl"] <= 0 || r.KV["qps_at_4x_mpl"] <= 0 {
		t.Errorf("throughput must be positive at and past the MPL: %v / %v",
			r.KV["qps_at_mpl"], r.KV["qps_at_4x_mpl"])
	}
	// The robustness claim: past the MPL the server queues, it does not
	// collapse. Throughput at 4x offered load must hold a healthy fraction
	// of the plateau (these are wall-clock, so the band is deliberately
	// loose — exact latency is never asserted).
	if ratio := r.KV["qps_retained_past_mpl"]; ratio < 0.5 {
		t.Errorf("throughput collapsed past the MPL: retained ratio %v", ratio)
	}
}

// TestE31PlanCacheRegions holds the plan cache's region rule to its bound on
// every shape: a cached plan never costs more than 1+λ times the plan a fresh
// optimization picks, key lookups cost exactly the same, a statement keeps
// at most four plans, and on the sweep — the one shape whose best plan
// flips — the cached engine starts scanning within one histogram step (the
// table is analyzed into 32 buckets over [0, 10000)) of where the optimizer
// does. The sweep and Q3 ratios are also pinned near what this commit
// measures (1.013 and 1.012): a regression of the rule shows long before the
// bound gives way.
func TestE31PlanCacheRegions(t *testing.T) {
	r := runE(t, "E31", 0.25)
	bound := 1 + r.KV["lambda"]
	for _, shape := range []string{"sweep", "lookup_order", "lookup_cust", "lookup_lines", "q3_date"} {
		worst, variants, hits := r.KV[shape+"_worst_ratio"], r.KV[shape+"_variants"], r.KV[shape+"_hits"]
		if worst > bound {
			t.Errorf("%s: worst cached/fresh cost ratio %v, bound %v", shape, worst, bound)
		}
		if strings.HasPrefix(shape, "lookup") && (worst != 1 || variants != 1) {
			t.Errorf("%s: ratio %v with %v plans, want exactly 1 with one plan", shape, worst, variants)
		}
		if variants < 1 || variants > 4 {
			t.Errorf("%s: %v plans kept", shape, variants)
		}
		if hits == 0 {
			t.Errorf("%s: the cache never served a plan", shape)
		}
	}
	if w := r.KV["sweep_worst_ratio"]; w > 1.03 {
		t.Errorf("sweep: worst ratio %v, measured 1.013", w)
	}
	if w := r.KV["q3_date_worst_ratio"]; w > 1.03 {
		t.Errorf("q3_date: worst ratio %v, measured 1.012", w)
	}
	if c, f := r.KV["sweep_flip_cached"], r.KV["sweep_flip_fresh"]; math.Abs(c-f) > 10000.0/32 || math.IsInf(c, 0) {
		t.Errorf("sweep: cached engine flips to the scan at %v, fresh optimizer at %v", c, f)
	}
	if r.KV["sweep_variants"] < 2 {
		t.Errorf("sweep: %v plans kept over a domain with an index and a scan region", r.KV["sweep_variants"])
	}
}
