package bench

import (
	"strings"
	"testing"
)

func testMeta() Meta { return NewMeta("mixed", 0.1, 0, false, 0, 0, 0) }

func baseResult() *Result {
	return &Result{
		Meta: testMeta(),
		MemSweep: []MemSweepPoint{
			{BudgetRows: 64, CostUnits: 1000, ResultExact: true},
			{BudgetRows: 256, CostUnits: 800, ResultExact: true},
		},
		FilterSweep: []FilterSweepPoint{
			{Selectivity: 0.1, UnfilteredUnits: 500, FilteredUnits: 200, ResultExact: true},
		},
		DopSweep: []DopSweepPoint{
			{DOP: 1, CostUnits: 400, ResultExact: true},
			{DOP: 8, CostUnits: 400, ResultExact: true},
		},
		ColumnarSweep: []ColumnarSweepPoint{
			{Encoding: "rle", Selectivity: 0.01, HeapUnits: 500, ColUnits: 10, Ratio: 50, ResultExact: true},
		},
		ShardSweep: []ShardSweepPoint{
			{Section: "uniform", Shards: 4, Mode: "repartition", HotSplit: true,
				TotalUnits: 1000, MakespanUnits: 400, ResultExact: true, CostExact: true},
			{Section: "skew", Shards: 4, Skew: 1.3, Mode: "repartition", HotSplit: true,
				TotalUnits: 2000, MakespanUnits: 900, ResultExact: true, CostExact: true},
		},
		ServerSweep: []ServerSweepPoint{
			{Clients: 1, MPL: 4, Queries: 12, QPS: 500, P50MS: 0.7, P99MS: 1.0,
				CostUnits: 3000, ResultExact: true},
			{Clients: 16, MPL: 4, Queries: 192, QPS: 1600, P50MS: 7, P99MS: 14,
				QueuedNotices: 3, ResultExact: true},
		},
		NetShuffleSweep: []NetShuffleSweepPoint{
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
	c.MemSweep = append([]MemSweepPoint(nil), r.MemSweep...)
	c.FilterSweep = append([]FilterSweepPoint(nil), r.FilterSweep...)
	c.DopSweep = append([]DopSweepPoint(nil), r.DopSweep...)
	c.ColumnarSweep = append([]ColumnarSweepPoint(nil), r.ColumnarSweep...)
	c.ShardSweep = append([]ShardSweepPoint(nil), r.ShardSweep...)
	c.ServerSweep = append([]ServerSweepPoint(nil), r.ServerSweep...)
	c.NetShuffleSweep = append([]NetShuffleSweepPoint(nil), r.NetShuffleSweep...)
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
		fresh.MemSweep[i].CostUnits *= 1.20
	}
	for i := range fresh.FilterSweep {
		fresh.FilterSweep[i].FilteredUnits *= 1.20
	}
	for i := range fresh.DopSweep {
		fresh.DopSweep[i].CostUnits *= 1.20
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
		fresh.MemSweep[i].CostUnits *= 0.5
	}
	if v := Compare(base, fresh, 2.0); len(v) != 0 {
		t.Fatalf("cost improvements must not fail the gate: %v", v)
	}
}

func TestCompareExactnessDecayFails(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.MemSweep[0].ResultExact = false
	fresh.ShardSweep[0].CostExact = false
	violations := Compare(base, fresh, 2.0)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want result + cost exactness", violations)
	}
	for _, v := range violations {
		if !strings.Contains(v.Msg, "exactness lost") {
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
	if len(violations) != 1 || !strings.Contains(violations[0].Msg, "cardinality changed") {
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
// check: a baseline whose kind is not in KnownKinds must fail loudly
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
		if !KnownKinds[k] {
			t.Fatalf("kind %q missing from registry", k)
		}
	}
}

// TestCompareColumnarSweepGates exercises the columnar section's own
// gates: exactness decay and missing coverage both fail.
func TestCompareColumnarSweepGates(t *testing.T) {
	base := baseResult()
	fresh := clone(base)
	fresh.ColumnarSweep[0].ResultExact = false
	if v := Compare(base, fresh, 2.0); len(v) != 1 || !strings.Contains(v[0].Msg, "exactness lost") {
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
		points, _, err := RunDopSweep(0.05)
		if err != nil {
			t.Fatal(err)
		}
		return &Result{Meta: NewMeta("dop-sweep", 0.05, 0, false, 0, 0, 0), DopSweep: points}
	}
	a, b := run(), run()
	if len(a.DopSweep) == 0 {
		t.Fatal("empty sweep")
	}
	if v := Compare(a, b, 0); len(v) != 0 {
		t.Fatalf("back-to-back sweeps differ at zero tolerance: %v", v)
	}
	for _, p := range a.DopSweep {
		if !p.ResultExact {
			t.Fatalf("DOP %d runs are not reproducible", p.DOP)
		}
		if p.CostUnits != a.DopSweep[0].CostUnits {
			t.Fatalf("cost parity broken: DOP %d cost %v vs %v", p.DOP, p.CostUnits, a.DopSweep[0].CostUnits)
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

	// A co-located point that starts emitting bytes fails even though
	// gateCost skips zero baselines.
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
		if !KnownKinds[k] {
			t.Errorf("sweep kind %q missing from KnownKinds", k)
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
	// Kinds that exist in KnownKinds but are not sweeps are not valid
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
