package bench

import (
	"reflect"
	"strings"
	"testing"

	"rqp/internal/experiments"
)

func testMeta() Meta { return NewMeta("mixed", 0.1, 0, 0, 0) }

func baseResult() *Result {
	return &Result{
		Meta: testMeta(),
		MemSweep: []experiments.MemSweepPoint{
			{Budget: 64, Units: 1000, Partitions: 12, SpillRows: 900, SpillPages: 20, MaxDepth: 1, Match: true},
			{Budget: 256, Units: 800, Match: true},
		},
		FilterSweep: []experiments.FilterSweepPoint{
			{Sel: 0.1, Unfiltered: 500, Filtered: 200, Ratio: 2.5, Match: true},
		},
		DopSweep: []experiments.DopSweepPoint{
			{DOP: 1, Units: 400, WallMS: 12, Match: true},
			{DOP: 8, Units: 400, WallMS: 5, Match: true},
		},
		ColumnarSweep: []experiments.ColumnarSweepPoint{
			{Encoding: "rle", Sel: 0.01, HeapUnits: 500, ColUnits: 10, Ratio: 50, Match: true},
		},
		ShardSweep: []experiments.ShardSweepPoint{
			{Section: "uniform", Shards: 4, Mode: "repartition", HotSplit: true,
				TotalUnits: 1000, MakespanUnits: 400, ResultExact: true, CostExact: true},
			{Section: "skew", Shards: 4, Skew: 1.3, Mode: "repartition", HotSplit: true,
				TotalUnits: 2000, MakespanUnits: 900, ResultExact: true, CostExact: true},
		},
		ServerSweep: []experiments.ServerSweepPoint{
			{Clients: 1, MPL: 4, Queries: 12, QPS: 500, P50MS: 0.7, P99MS: 1.0,
				CostUnits: 3000, ResultExact: true},
			{Clients: 16, MPL: 4, Queries: 192, QPS: 1600, P50MS: 7, P99MS: 14,
				QueuedNotices: 3, ResultExact: true},
		},
		NetShuffleSweep: []experiments.NetShuffleSweepPoint{
			{Section: "uniform", Shards: 4, Mode: "repartition", HotSplit: true, Transport: "tcp",
				TotalUnits: 1000, MakespanUnits: 400, NetFrames: 40, NetBytes: 90000,
				NetRowsWire: 4000, NetStalls: 7, Reconciled: true, ResultExact: true, CostExact: true},
			{Section: "colocated", Shards: 4, Mode: "colocated", HotSplit: true, Transport: "tcp",
				TotalUnits: 1000, MakespanUnits: 300,
				Reconciled: true, ResultExact: true, CostExact: true},
		},
		Queries: []Query{
			{ID: 0, Policy: "classic", Rows: 42, CostUnits: 100},
		},
	}
}

// clone deep-copies a result so tests can perturb one side.
func clone(r *Result) *Result {
	c := *r
	c.MemSweep = append([]experiments.MemSweepPoint(nil), r.MemSweep...)
	c.FilterSweep = append([]experiments.FilterSweepPoint(nil), r.FilterSweep...)
	c.DopSweep = append([]experiments.DopSweepPoint(nil), r.DopSweep...)
	c.ColumnarSweep = append([]experiments.ColumnarSweepPoint(nil), r.ColumnarSweep...)
	c.ShardSweep = append([]experiments.ShardSweepPoint(nil), r.ShardSweep...)
	c.ServerSweep = append([]experiments.ServerSweepPoint(nil), r.ServerSweep...)
	c.NetShuffleSweep = append([]experiments.NetShuffleSweepPoint(nil), r.NetShuffleSweep...)
	c.Queries = append([]Query(nil), r.Queries...)
	return &c
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := baseResult()
	if v := Compare(base, clone(base), 2.0); len(v) != 0 {
		t.Fatalf("identical results produced violations: %v", v)
	}
}

// TestCompareFailsOnInflatedCosts is the gate's acceptance check: a fresh
// run whose costs are 20% above baseline must fail a 2% tolerance band in
// every cost-gated section.
func TestCompareFailsOnInflatedCosts(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	for i := range fresh.MemSweep {
		fresh.MemSweep[i].Units *= 1.20
	}
	for i := range fresh.FilterSweep {
		fresh.FilterSweep[i].Filtered *= 1.20
	}
	for i := range fresh.DopSweep {
		fresh.DopSweep[i].Units *= 1.20
	}
	for i := range fresh.ColumnarSweep {
		fresh.ColumnarSweep[i].HeapUnits *= 1.20
		fresh.ColumnarSweep[i].ColUnits *= 1.20
	}
	for i := range fresh.ServerSweep {
		fresh.ServerSweep[i].CostUnits *= 1.20 // only the clients=1 point carries cost
	}
	for i := range fresh.Queries {
		fresh.Queries[i].CostUnits *= 1.20
	}
	violations := Compare(base, fresh, 2.0)
	// 2 mem + 1 filter + 2 dop + 2 columnar units + 1 server + 1 probe = 9 cost gates.
	if len(violations) != 9 {
		t.Fatalf("violations = %d, want 9:\n%v", len(violations), violations)
	}
	for _, v := range violations {
		if v.DeltaPct < 19.9 || v.DeltaPct > 20.1 {
			t.Fatalf("delta = %v%%, want ≈20%%: %s", v.DeltaPct, v)
		}
	}
	sum := Summary(base, fresh, 2.0, violations)
	if !strings.Contains(sum, "FAIL") {
		t.Fatalf("summary must say FAIL:\n%s", sum)
	}
	// The same inflation inside the band passes.
	if v := Compare(base, fresh, 25.0); len(v) != 0 {
		t.Fatalf("25%% band must absorb a 20%% inflation: %v", v)
	}
}

func TestCompareImprovementsPass(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	for i := range fresh.MemSweep {
		fresh.MemSweep[i].Units *= 0.5
	}
	if v := Compare(base, fresh, 2.0); len(v) != 0 {
		t.Fatalf("cost improvements must not fail the gate: %v", v)
	}
}

func TestCompareExactnessDecayFails(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.MemSweep[0].Match = false
	fresh.ShardSweep[0].CostExact = false
	violations := Compare(base, fresh, 2.0)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want result + cost exactness", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v.Msg, "lost: baseline true, fresh false") {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
}

func TestCompareMissingCoverageFails(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.DopSweep = fresh.DopSweep[:1] // silently dropped DOP 8
	fresh.Queries = nil                 // probes vanished entirely
	violations := Compare(base, fresh, 2.0)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want 2 missing-coverage failures", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v.Msg, "missing from fresh run") {
			t.Fatalf("unexpected violation: %s", v)
		}
	}
}

func TestCompareRowCountChangeFails(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.Queries[0].Rows = 41
	violations := Compare(base, fresh, 2.0)
	if len(violations) != 1 || !strings.Contains(violations[0].Msg, "changed: 42 -> 41") {
		t.Fatalf("violations = %v", violations)
	}
}

func TestCompareRefusesMismatchedMeta(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.Meta.Scale = 0.5
	violations := Compare(base, fresh, 2.0)
	if len(violations) != 1 || violations[0].Where != "meta" ||
		!strings.Contains(violations[0].Msg, "scale mismatch") {
		t.Fatalf("violations = %v, want a single meta refusal", violations)
	}

	fresh = clone(base)
	fresh.Meta.Seed = 7
	if v := Compare(base, fresh, 2.0); len(v) != 1 || !strings.Contains(v[0].Msg, "seed mismatch") {
		t.Fatalf("violations = %v, want seed refusal", v)
	}

	fresh = clone(base)
	fresh.Meta.Kind = "dop-sweep"
	if v := Compare(base, fresh, 2.0); len(v) != 1 || !strings.Contains(v[0].Msg, "kind mismatch") {
		t.Fatalf("violations = %v, want kind refusal", v)
	}
}

// TestCompareRefusesUnregisteredKind is the satellite fix's acceptance
// check: a baseline whose kind is not registered must fail loudly
// instead of being accepted and silently diffing zero points — the failure
// mode that let a new bench kind bypass the gate.
func TestCompareRefusesUnregisteredKind(t *testing.T) {
	for _, k := range []string{"flux-sweep", "vec-sweep"} {
		base := baseResult()
		base.Meta.Kind = k
		fresh := clone(base)
		violations := Compare(base, fresh, 2.0)
		if len(violations) != 1 || violations[0].Where != "meta" ||
			!strings.Contains(violations[0].Msg, "unknown kind") {
			t.Fatalf("kind %q: violations = %v, want a single unknown-kind refusal", k, violations)
		}
	}
	// Every shipped baseline kind must be registered.
	for _, k := range []string{"probes", "mem-sweep", "filter-sweep", "dop-sweep", "columnar-sweep", "mixed"} {
		if kindNamed(k) == nil {
			t.Fatalf("kind %q missing from registry", k)
		}
	}
}

// TestCompareColumnarSweepGates exercises the columnar section's own
// gates: exactness decay and missing coverage both fail.
func TestCompareColumnarSweepGates(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.ColumnarSweep[0].Match = false
	if v := Compare(base, fresh, 2.0); len(v) != 1 || !strings.Contains(v[0].Msg, "lost: baseline true") {
		t.Fatalf("violations = %v, want columnar exactness failure", v)
	}
	fresh = clone(base)
	fresh.ColumnarSweep = nil
	if v := Compare(base, fresh, 2.0); len(v) != 1 || !strings.Contains(v[0].Msg, "missing from fresh run") {
		t.Fatalf("violations = %v, want columnar coverage failure", v)
	}
}

// TestSweepsAreDeterministic re-runs the DOP parity sweep twice at tiny
// scale and requires a clean gate: the simulated cost clock must make
// back-to-back runs bit-identical, or the whole regression gate is noise.
func TestSweepsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload run")
	}
	run := func() *Result {
		r := &Result{Meta: NewMeta("dop-sweep", 0.05, 0, 0, 0)}
		if _, err := RunSweep("dop-sweep", 0.05, 0, r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.DopSweep) == 0 {
		t.Fatal("empty sweep")
	}
	if v := Compare(a, b, 0); len(v) != 0 {
		t.Fatalf("back-to-back sweeps differ at zero tolerance: %v", v)
	}
	for _, p := range a.DopSweep {
		if !p.Match {
			t.Fatalf("DOP %d runs are not reproducible", p.DOP)
		}
		if p.Units != a.DopSweep[0].Units {
			t.Fatalf("cost parity broken: DOP %d cost %v vs %v", p.DOP, p.Units, a.DopSweep[0].Units)
		}
	}
}

func TestCompareShardSweep(t *testing.T) {
	base := baseResult()

	// Makespan regression past tolerance fails.
	fresh := clone(base)
	fresh.ShardSweep[0].MakespanUnits *= 1.2
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("20% makespan regression passed a 2% gate")
	}

	// Exactness decay fails regardless of cost.
	fresh = clone(base)
	fresh.ShardSweep[1].CostExact = false
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("cost_exact=false slipped through the gate")
	}
	fresh = clone(base)
	fresh.ShardSweep[1].ResultExact = false
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("result_exact=false slipped through the gate")
	}

	// A vanished point is shrunken coverage.
	fresh = clone(base)
	fresh.ShardSweep = fresh.ShardSweep[:1]
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("missing shard_sweep point passed the gate")
	}
}

func TestCompareServerSweep(t *testing.T) {
	base := baseResult()

	// The deterministic clients=1 cost total is gated; a 20% regression
	// fails a 2% band.
	fresh := clone(base)
	fresh.ServerSweep[0].CostUnits *= 1.2
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("20% serial-cost regression passed a 2% gate")
	}

	// Concurrent points carry no deterministic cost (CostUnits == 0) and
	// must never be cost-gated, even if wall-clock metrics moved.
	fresh = clone(base)
	fresh.ServerSweep[1].QPS *= 0.5
	fresh.ServerSweep[1].P99MS *= 3
	if v := Compare(base, fresh, 2.0); len(v) != 0 {
		t.Fatalf("wall-clock latency/qps movement must not be gated: %v", v)
	}

	// Exactness decay fails at any concurrency.
	fresh = clone(base)
	fresh.ServerSweep[1].ResultExact = false
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("result_exact=false slipped through the gate")
	}

	// Admission timeouts appearing where the baseline had none fail.
	fresh = clone(base)
	fresh.ServerSweep[1].AdmitTimeouts = 2
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("appearing admit timeouts slipped through the gate")
	}

	// A vanished client-count point is shrunken coverage.
	fresh = clone(base)
	fresh.ServerSweep = fresh.ServerSweep[:1]
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("missing server_sweep point passed the gate")
	}
}

func TestCompareNetShuffleSweep(t *testing.T) {
	base := baseResult()

	// Identical wire totals pass; stalls are timing and never gated.
	fresh := clone(base)
	fresh.NetShuffleSweep[0].NetStalls = 900
	if v := Compare(base, fresh, 2.0); len(v) != 0 {
		t.Fatalf("credit-stall movement must not be gated: %v", v)
	}

	// Frame-count bloat past tolerance fails: the batching win is the
	// point of the transport.
	fresh = clone(base)
	fresh.NetShuffleSweep[0].NetFrames *= 2
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("2x frame bloat passed a 2% gate")
	}
	fresh = clone(base)
	fresh.NetShuffleSweep[0].NetBytes = int64(float64(base.NetShuffleSweep[0].NetBytes) * 1.2)
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("20% byte bloat passed a 2% gate")
	}

	// Reconciliation decay fails — routed rows must equal framed rows.
	fresh = clone(base)
	fresh.NetShuffleSweep[0].Reconciled = false
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("reconciled=false slipped through the gate")
	}

	// A co-located point that starts emitting bytes fails even though the
	// tol rule skips zero baselines.
	fresh = clone(base)
	fresh.NetShuffleSweep[1].NetBytes = 4096
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("wire traffic on a zero-byte baseline passed the gate")
	}

	// A transport flip (tcp -> local fallback) is a behavior change.
	fresh = clone(base)
	fresh.NetShuffleSweep[0].Transport = "local"
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("transport change passed the gate")
	}

	// A vanished point is shrunken coverage.
	fresh = clone(base)
	fresh.NetShuffleSweep = fresh.NetShuffleSweep[:1]
	if v := Compare(base, fresh, 2.0); len(v) == 0 {
		t.Fatal("missing netshuffle_sweep point passed the gate")
	}
}

func TestComparableShardConfig(t *testing.T) {
	a := testMeta()

	b := testMeta()
	b.Shards = 4
	if err := a.Comparable(b); err == nil {
		t.Fatal("shard-count mismatch must not be comparable")
	}

	b = testMeta()
	b.Skew = 1.3
	if err := a.Comparable(b); err == nil {
		t.Fatal("skew mismatch must not be comparable")
	}
}

func TestSweepKindsRegistry(t *testing.T) {
	kinds := SweepKinds()
	want := map[string]bool{"mem-sweep": true, "filter-sweep": true, "dop-sweep": true,
		"columnar-sweep": true, "shard-sweep": true, "server-sweep": true,
		"netshuffle-sweep": true}
	if len(kinds) != len(want) {
		t.Fatalf("SweepKinds() = %v, want the %d sweep kinds", kinds, len(want))
	}
	for _, k := range kinds {
		if !want[k] {
			t.Errorf("unexpected sweep kind %q", k)
		}
		if kindNamed(k) == nil {
			t.Errorf("sweep kind %q missing from the registry", k)
		}
	}
	if _, err := RunSweep("no-such-sweep", 1, 0, &Result{}); err == nil {
		t.Error("unknown sweep kind must error")
	}
}

// TestValidateSweepKinds pins the fail-fast path rqpbench uses before any
// experiment runs: a misspelled kind is rejected up front and the error
// names every kind that would have worked.
func TestValidateSweepKinds(t *testing.T) {
	if err := ValidateSweepKinds(SweepKinds()); err != nil {
		t.Fatalf("all registered sweep kinds must validate: %v", err)
	}
	err := ValidateSweepKinds([]string{"mem-sweep", "shardsweep"})
	if err == nil {
		t.Fatal("misspelled kind must fail validation")
	}
	if !strings.Contains(err.Error(), `"shardsweep"`) {
		t.Errorf("error must name the bad kind: %v", err)
	}
	for _, k := range SweepKinds() {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("error must list known kind %q: %v", k, err)
		}
	}
	// Kinds that are registered but are not sweeps are not valid
	// -sweep arguments either.
	for _, k := range []string{"probes", "mixed"} {
		if err := ValidateSweepKinds([]string{k}); err == nil {
			t.Errorf("%q is not a sweep and must be rejected", k)
		}
	}
	if err := ValidateSweepKinds(nil); err != nil {
		t.Errorf("empty kind list must validate: %v", err)
	}
}

// TestGatedFieldsPinned lists, by hand, every field the gate checks and the
// rule it is checked by, so a tag edit that stops gating a field fails here
// by name. Each perturbation must produce exactly one violation on that
// field; perturbing a field the table leaves out must produce none.
func TestGatedFieldsPinned(t *testing.T) {
	gated := []struct {
		section, field, rule string
		perturb              func(r *Result)
	}{
		{"mem_sweep", "cost_units", "tol", func(r *Result) { r.MemSweep[0].Units *= 1.2 }},
		{"mem_sweep", "result_exact", "never", func(r *Result) { r.MemSweep[0].Match = false }},
		{"filter_sweep", "filtered_units", "tol", func(r *Result) { r.FilterSweep[0].Filtered *= 1.2 }},
		{"filter_sweep", "unfiltered_units", "tol", func(r *Result) { r.FilterSweep[0].Unfiltered *= 1.2 }},
		{"filter_sweep", "result_exact", "never", func(r *Result) { r.FilterSweep[0].Match = false }},
		{"dop_sweep", "cost_units", "tol", func(r *Result) { r.DopSweep[0].Units *= 1.2 }},
		{"dop_sweep", "result_exact", "never", func(r *Result) { r.DopSweep[0].Match = false }},
		{"columnar_sweep", "col_units", "tol", func(r *Result) { r.ColumnarSweep[0].ColUnits *= 1.2 }},
		{"columnar_sweep", "heap_units", "tol", func(r *Result) { r.ColumnarSweep[0].HeapUnits *= 1.2 }},
		{"columnar_sweep", "result_exact", "never", func(r *Result) { r.ColumnarSweep[0].Match = false }},
		{"shard_sweep", "makespan_units", "tol", func(r *Result) { r.ShardSweep[0].MakespanUnits *= 1.2 }},
		{"shard_sweep", "total_units", "tol", func(r *Result) { r.ShardSweep[0].TotalUnits *= 1.2 }},
		{"shard_sweep", "result_exact", "never", func(r *Result) { r.ShardSweep[0].ResultExact = false }},
		{"shard_sweep", "cost_exact", "never", func(r *Result) { r.ShardSweep[0].CostExact = false }},
		{"netshuffle_sweep", "makespan_units", "tol", func(r *Result) { r.NetShuffleSweep[0].MakespanUnits *= 1.2 }},
		{"netshuffle_sweep", "total_units", "tol", func(r *Result) { r.NetShuffleSweep[0].TotalUnits *= 1.2 }},
		{"netshuffle_sweep", "net_frames", "tol", func(r *Result) { r.NetShuffleSweep[0].NetFrames *= 2 }},
		{"netshuffle_sweep", "net_bytes", "tol", func(r *Result) { r.NetShuffleSweep[0].NetBytes *= 2 }},
		{"netshuffle_sweep", "net_rows_wire", "tol", func(r *Result) { r.NetShuffleSweep[0].NetRowsWire *= 2 }},
		{"netshuffle_sweep", "result_exact", "never", func(r *Result) { r.NetShuffleSweep[0].ResultExact = false }},
		{"netshuffle_sweep", "cost_exact", "never", func(r *Result) { r.NetShuffleSweep[0].CostExact = false }},
		{"netshuffle_sweep", "reconciled", "never", func(r *Result) { r.NetShuffleSweep[0].Reconciled = false }},
		{"netshuffle_sweep", "net_bytes", "never", func(r *Result) { r.NetShuffleSweep[1].NetBytes = 4096 }},
		{"netshuffle_sweep", "transport", "equal", func(r *Result) { r.NetShuffleSweep[0].Transport = "local" }},
		{"server_sweep", "cost_units", "tol", func(r *Result) { r.ServerSweep[0].CostUnits *= 1.2 }},
		{"server_sweep", "result_exact", "never", func(r *Result) { r.ServerSweep[1].ResultExact = false }},
		{"server_sweep", "admit_timeouts", "never", func(r *Result) { r.ServerSweep[1].AdmitTimeouts = 2 }},
		{"queries", "cost_units", "tol", func(r *Result) { r.Queries[0].CostUnits *= 1.2 }},
		{"queries", "rows", "equal", func(r *Result) { r.Queries[0].Rows = 41 }},
	}
	base := baseResult()
	for _, g := range gated {
		fresh := clone(base)
		g.perturb(fresh)
		v := Compare(base, fresh, 2.0)
		if len(v) != 1 || !strings.HasPrefix(v[0].Where, g.section+"[") ||
			!strings.HasSuffix(v[0].Where, "]."+g.field) {
			t.Errorf("%s.%s (%s): violations = %v, want exactly one on that field", g.section, g.field, g.rule, v)
		}
	}

	recorded := map[string]func(r *Result){
		"mem_sweep.spill_partitions":    func(r *Result) { r.MemSweep[0].Partitions *= 3 },
		"mem_sweep.spill_rows":          func(r *Result) { r.MemSweep[0].SpillRows *= 3 },
		"mem_sweep.spill_pages":         func(r *Result) { r.MemSweep[0].SpillPages *= 3 },
		"mem_sweep.recursion_depth":     func(r *Result) { r.MemSweep[0].MaxDepth = 3 },
		"mem_sweep.merge_fallbacks":     func(r *Result) { r.MemSweep[0].Fallbacks = 2 },
		"filter_sweep.ratio":            func(r *Result) { r.FilterSweep[0].Ratio = 0.5 },
		"filter_sweep.rows_dropped":     func(r *Result) { r.FilterSweep[0].Dropped = 9 },
		"dop_sweep.wall_ms":             func(r *Result) { r.DopSweep[0].WallMS *= 10 },
		"columnar_sweep.ratio":          func(r *Result) { r.ColumnarSweep[0].Ratio = 1 },
		"columnar_sweep.blocks_scanned": func(r *Result) { r.ColumnarSweep[0].BlocksScanned = 20 },
		"shard_sweep.worst_shard_units": func(r *Result) { r.ShardSweep[0].WorstShard = 999 },
		"shard_sweep.rows_moved":        func(r *Result) { r.ShardSweep[0].RowsMoved = 999 },
		"server_sweep.qps":              func(r *Result) { r.ServerSweep[1].QPS *= 0.5 },
		"server_sweep.p99_ms":           func(r *Result) { r.ServerSweep[1].P99MS *= 3 },
		"server_sweep.queued_notices":   func(r *Result) { r.ServerSweep[1].QueuedNotices = 40 },
		"netshuffle_sweep.net_stalls":   func(r *Result) { r.NetShuffleSweep[0].NetStalls = 900 },
		"netshuffle_sweep.rows_moved":   func(r *Result) { r.NetShuffleSweep[0].RowsMoved = 999 },
		"queries.reopts":                func(r *Result) { r.Queries[0].Reopts = 4 },
		"queries.qerror_geomean":        func(r *Result) { r.Queries[0].QErrorGeomean = 30 },
		"experiments.wall_ms":           func(r *Result) { r.Experiments = []Experiment{{ID: "E1", WallMS: 9}} },
		"server_sweep.mean_cost_units":  func(r *Result) { r.ServerSweep[0].MeanCostUnits *= 2 },
		"netshuffle_sweep.peer_bytes":   func(r *Result) { r.NetShuffleSweep[0].PeerBytes = []int64{1, 2} },
		"filter_sweep.filters_disabled": func(r *Result) { r.FilterSweep[0].Disabled = 1 },
		"columnar_sweep.blocks_skipped": func(r *Result) { r.ColumnarSweep[0].BlocksSkipped = 3 },
		"shard_sweep.mean_shard_units":  func(r *Result) { r.ShardSweep[1].MeanShard = 77 },
		"netshuffle_sweep.hot_keys":     func(r *Result) { r.NetShuffleSweep[0].HotKeys = 5 },
		"server_sweep.queued_waits":     func(r *Result) { r.ServerSweep[1].QueuedWaits = 8 },
		"queries.fingerprint":           func(r *Result) { r.Queries[0].Fingerprint = "other" },
		"filter_sweep.filters_built":    func(r *Result) { r.FilterSweep[0].Built = 3 },
	}
	for name, perturb := range recorded {
		fresh := clone(base)
		perturb(fresh)
		if v := Compare(base, fresh, 2.0); len(v) != 0 {
			t.Errorf("%s is recorded only, but perturbing it fails the gate: %v", name, v)
		}
	}
}

// TestGateKeysAreWhole pins that every key field takes part in matching:
// points that differ only in one key field are matched to their own fresh
// point and named apart.
func TestGateKeysAreWhole(t *testing.T) {
	base := &Result{Meta: testMeta(),
		ShardSweep: []experiments.ShardSweepPoint{
			{Section: "straggler", Shards: 4, Mode: "repartition", MakespanUnits: 400, ResultExact: true},
			{Section: "straggler", Shards: 4, Mode: "repartition", Workers: "1,2,2,2", MakespanUnits: 800, ResultExact: true},
		},
		Queries: []Query{
			{Policy: "classic", ID: 3, Rows: 10, CostUnits: 100},
			{Policy: "pop", ID: 3, Rows: 10, CostUnits: 60},
		},
	}
	swapped := clone(base)
	swapped.ShardSweep[0], swapped.ShardSweep[1] = swapped.ShardSweep[1], swapped.ShardSweep[0]
	swapped.Queries[0], swapped.Queries[1] = swapped.Queries[1], swapped.Queries[0]
	if v := Compare(base, swapped, 0); len(v) != 0 {
		t.Fatalf("reordered points must match by key: %v", v)
	}

	fresh := clone(base)
	fresh.ShardSweep[1].MakespanUnits *= 1.2
	fresh.Queries[1].CostUnits *= 1.2
	v := Compare(base, fresh, 2.0)
	want := []string{
		"queries[policy=pop,id=3].cost_units",
		"shard_sweep[section=straggler,shards=4,skew=0,hot_split=false,mode=repartition,workers=1,2,2,2].makespan_units",
	}
	if len(v) != len(want) {
		t.Fatalf("violations = %v, want %v", v, want)
	}
	for i := range want {
		if v[i].Where != want[i] {
			t.Errorf("violation %d at %q, want %q", i, v[i].Where, want[i])
		}
	}

	fresh = clone(base)
	fresh.ShardSweep = fresh.ShardSweep[:1]
	fresh.Queries = fresh.Queries[:1]
	v = Compare(base, fresh, 2.0)
	if len(v) != 2 || !strings.Contains(v[0].Where, "policy=pop") || !strings.Contains(v[1].Where, "workers=1,2,2,2") {
		t.Fatalf("violations = %v, want the pop query and the straggler point missing", v)
	}
}

// TestGateTagsAreWellFormed is the registry's structural check: every
// gated section of Result has a registered kind, its point type has at
// least one key field and one gated field, and every gate tag value is one
// of the four rules.
func TestGateTagsAreWellFormed(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	sections := map[string]bool{}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		name := jsonName(f)
		sections[name] = true
		var keys, gated int
		pt := f.Type.Elem()
		for j := 0; j < pt.NumField(); j++ {
			for _, r := range rules(pt.Field(j)) {
				switch r {
				case "key":
					keys++
				case "tol", "never", "equal":
					gated++
				default:
					t.Errorf("%s.%s: unknown gate rule %q", name, jsonName(pt.Field(j)), r)
				}
			}
		}
		if name == "experiments" {
			continue // headline maps: recorded, not gated
		}
		registered := false
		for _, k := range kinds {
			registered = registered || k.section == name
		}
		if !registered {
			t.Errorf("section %s has no registered kind", name)
		}
		if keys == 0 || gated == 0 {
			t.Errorf("section %s: %d key and %d gated fields, want at least one of each", name, keys, gated)
		}
	}
	for _, k := range kinds {
		if k.section != "" && !sections[k.section] {
			t.Errorf("kind %s names section %q, which Result does not have", k.name, k.section)
		}
		if k.run != nil && k.section == "" {
			t.Errorf("kind %s has a runner but no section", k.name)
		}
	}
}
