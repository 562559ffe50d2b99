package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Violation is one regression-gate failure: a metric that moved past the
// tolerance band, lost exactness, or disappeared.
type Violation struct {
	Where    string  // e.g. "mem_sweep[budget_rows=64].cost_units"
	Baseline float64 `json:",omitempty"`
	Fresh    float64 `json:",omitempty"`
	DeltaPct float64 `json:",omitempty"`
	Msg      string
}

// String renders the violation for the gate's report.
func (v Violation) String() string {
	if v.Msg != "" {
		return fmt.Sprintf("%s: %s", v.Where, v.Msg)
	}
	return fmt.Sprintf("%s: %.3f -> %.3f (%+.1f%% > tol)", v.Where, v.Baseline, v.Fresh, v.DeltaPct)
}

// Compare diffs a fresh bench result against a committed baseline and
// returns the violations. tolPct is the allowed cost/latency increase in
// percent (improvements never fail the gate; they are the caller's to
// celebrate). Only deterministic simulated-cost metrics are gated —
// wall-clock fields are machine-dependent and ignored. Sections present in
// the baseline but absent from the fresh run are violations (silent loss
// of coverage); sections only in the fresh run are ignored (new coverage
// is not a regression). Exactness flags (result_exact, cost_exact,
// reconciled) must never decay from true to false.
//
// Comparability of the two metas is a precondition: call
// base.Meta.Comparable(fresh.Meta) first; Compare itself returns a single
// meta violation instead of a misleading metric diff when they differ.
func Compare(base, fresh *Result, tolPct float64) []Violation {
	if !KnownKinds[base.Meta.Kind] {
		return []Violation{{Where: "meta", Msg: fmt.Sprintf(
			"unknown kind %q: not in the gate's kind registry, its sections would be silently skipped", base.Meta.Kind)}}
	}
	if err := base.Meta.Comparable(fresh.Meta); err != nil {
		return []Violation{{Where: "meta", Msg: "not comparable: " + err.Error()}}
	}
	var out []Violation
	out = append(out, compareMemSweep(base.MemSweep, fresh.MemSweep, tolPct)...)
	out = append(out, compareFilterSweep(base.FilterSweep, fresh.FilterSweep, tolPct)...)
	out = append(out, compareDopSweep(base.DopSweep, fresh.DopSweep, tolPct)...)
	out = append(out, compareColumnarSweep(base.ColumnarSweep, fresh.ColumnarSweep, tolPct)...)
	out = append(out, compareShardSweep(base.ShardSweep, fresh.ShardSweep, tolPct)...)
	out = append(out, compareServerSweep(base.ServerSweep, fresh.ServerSweep, tolPct)...)
	out = append(out, compareNetShuffleSweep(base.NetShuffleSweep, fresh.NetShuffleSweep, tolPct)...)
	out = append(out, compareQueries(base.Queries, fresh.Queries, tolPct)...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Where < out[j].Where })
	return out
}

// gateCost appends a violation when fresh cost exceeds baseline by more
// than tolPct percent.
func gateCost(out []Violation, where string, baseV, freshV, tolPct float64) []Violation {
	if baseV <= 0 {
		return out
	}
	deltaPct := (freshV - baseV) / baseV * 100
	if deltaPct > tolPct+1e-12 {
		out = append(out, Violation{Where: where, Baseline: baseV, Fresh: freshV, DeltaPct: deltaPct})
	}
	return out
}

func gateExact(out []Violation, where string, baseOK, freshOK bool) []Violation {
	if baseOK && !freshOK {
		out = append(out, Violation{Where: where, Msg: "exactness lost: baseline true, fresh false"})
	}
	return out
}

func missing(where string) Violation {
	return Violation{Where: where, Msg: "present in baseline, missing from fresh run"}
}

func compareMemSweep(base, fresh []MemSweepPoint, tol float64) []Violation {
	var out []Violation
	byBudget := map[int]MemSweepPoint{}
	for _, p := range fresh {
		byBudget[p.BudgetRows] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("mem_sweep[budget_rows=%d]", b.BudgetRows)
		f, ok := byBudget[b.BudgetRows]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".cost_units", b.CostUnits, f.CostUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
	}
	return out
}

func compareFilterSweep(base, fresh []FilterSweepPoint, tol float64) []Violation {
	var out []Violation
	bySel := map[string]FilterSweepPoint{}
	selKey := func(s float64) string { return fmt.Sprintf("%g", s) }
	for _, p := range fresh {
		bySel[selKey(p.Selectivity)] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("filter_sweep[selectivity=%g]", b.Selectivity)
		f, ok := bySel[selKey(b.Selectivity)]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".filtered_units", b.FilteredUnits, f.FilteredUnits, tol)
		out = gateCost(out, where+".unfiltered_units", b.UnfilteredUnits, f.UnfilteredUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
	}
	return out
}

func compareDopSweep(base, fresh []DopSweepPoint, tol float64) []Violation {
	var out []Violation
	byDOP := map[int]DopSweepPoint{}
	for _, p := range fresh {
		byDOP[p.DOP] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("dop_sweep[dop=%d]", b.DOP)
		f, ok := byDOP[b.DOP]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".cost_units", b.CostUnits, f.CostUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
	}
	return out
}

func compareColumnarSweep(base, fresh []ColumnarSweepPoint, tol float64) []Violation {
	var out []Violation
	type key struct {
		enc string
		sel string
	}
	byKey := map[key]ColumnarSweepPoint{}
	for _, p := range fresh {
		byKey[key{p.Encoding, fmt.Sprintf("%g", p.Selectivity)}] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("columnar_sweep[encoding=%s,selectivity=%g]", b.Encoding, b.Selectivity)
		f, ok := byKey[key{b.Encoding, fmt.Sprintf("%g", b.Selectivity)}]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".col_units", b.ColUnits, f.ColUnits, tol)
		out = gateCost(out, where+".heap_units", b.HeapUnits, f.HeapUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
	}
	return out
}

// compareShardSweep gates the sharded-execution map point by point: the
// derived makespan and the main-clock total may not regress past
// tolerance, and the exactness bits (byte-identical rows, integer-exact
// cost vs serial) may never flip off — they are the signature invariant.
func compareShardSweep(base, fresh []ShardSweepPoint, tol float64) []Violation {
	var out []Violation
	type key struct {
		section  string
		shards   int
		skew     string
		hotSplit bool
		mode     string
		workers  string
	}
	mk := func(p ShardSweepPoint) key {
		return key{p.Section, p.Shards, fmt.Sprintf("%g", p.Skew), p.HotSplit, p.Mode, p.Workers}
	}
	byKey := map[key]ShardSweepPoint{}
	for _, p := range fresh {
		byKey[mk(p)] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("shard_sweep[section=%s,shards=%d,skew=%g,split=%v,mode=%s]",
			b.Section, b.Shards, b.Skew, b.HotSplit, b.Mode)
		f, ok := byKey[mk(b)]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".makespan_units", b.MakespanUnits, f.MakespanUnits, tol)
		out = gateCost(out, where+".total_units", b.TotalUnits, f.TotalUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
		out = gateExact(out, where+".cost_exact", b.CostExact, f.CostExact)
	}
	return out
}

// compareNetShuffleSweep gates the network-shuffle map point by point.
// Deterministic fields only: the main clock (makespan, total), the wire
// totals (frames, bytes, rows — fixed batch seal points and a canonical
// encoding make these reproducible across machines), exactness and
// reconciliation flags, and the zero-bytes guarantee for co-located joins.
// NetStalls is credit-window timing and is never gated.
func compareNetShuffleSweep(base, fresh []NetShuffleSweepPoint, tol float64) []Violation {
	var out []Violation
	type key struct {
		section  string
		shards   int
		skew     string
		hotSplit bool
		mode     string
		workers  string
	}
	mk := func(p NetShuffleSweepPoint) key {
		return key{p.Section, p.Shards, fmt.Sprintf("%g", p.Skew), p.HotSplit, p.Mode, p.Workers}
	}
	byKey := map[key]NetShuffleSweepPoint{}
	for _, p := range fresh {
		byKey[mk(p)] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("netshuffle_sweep[section=%s,shards=%d,skew=%g,split=%v,mode=%s]",
			b.Section, b.Shards, b.Skew, b.HotSplit, b.Mode)
		f, ok := byKey[mk(b)]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".makespan_units", b.MakespanUnits, f.MakespanUnits, tol)
		out = gateCost(out, where+".total_units", b.TotalUnits, f.TotalUnits, tol)
		out = gateCost(out, where+".net_frames", float64(b.NetFrames), float64(f.NetFrames), tol)
		out = gateCost(out, where+".net_bytes", float64(b.NetBytes), float64(f.NetBytes), tol)
		out = gateCost(out, where+".net_rows_wire", float64(b.NetRowsWire), float64(f.NetRowsWire), tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
		out = gateExact(out, where+".cost_exact", b.CostExact, f.CostExact)
		out = gateExact(out, where+".reconciled", b.Reconciled, f.Reconciled)
		// A point that put nothing on the wire (co-located, serial, local
		// fallback) must stay off the wire: gateCost skips zero baselines,
		// so pin zero-stays-zero explicitly.
		if b.NetBytes == 0 && f.NetBytes > 0 {
			out = append(out, Violation{Where: where + ".net_bytes",
				Msg: fmt.Sprintf("wire traffic appeared: 0 -> %d bytes", f.NetBytes)})
		}
		if b.Transport != f.Transport {
			out = append(out, Violation{Where: where + ".transport",
				Msg: fmt.Sprintf("transport changed: %q -> %q", b.Transport, f.Transport)})
		}
	}
	return out
}

// compareServerSweep gates the service-layer concurrency map. Latency and
// qps are wall-clock and never gated; what is gated per client count: the
// deterministic simulated total (only the clients=1 point records one —
// gateCost skips the concurrent points' zero baselines), exactness (a
// wrong result under concurrency must fail the gate even when it is
// timing-dependent and this run merely got unlucky enough to catch it),
// admission-timeout count staying zero, and point coverage.
func compareServerSweep(base, fresh []ServerSweepPoint, tol float64) []Violation {
	var out []Violation
	byClients := map[int]ServerSweepPoint{}
	for _, p := range fresh {
		byClients[p.Clients] = p
	}
	for _, b := range base {
		where := fmt.Sprintf("server_sweep[clients=%d]", b.Clients)
		f, ok := byClients[b.Clients]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".cost_units", b.CostUnits, f.CostUnits, tol)
		out = gateExact(out, where+".result_exact", b.ResultExact, f.ResultExact)
		if b.AdmitTimeouts == 0 && f.AdmitTimeouts > 0 {
			out = append(out, Violation{Where: where + ".admit_timeouts",
				Msg: fmt.Sprintf("admission timeouts appeared: 0 -> %d", f.AdmitTimeouts)})
		}
	}
	return out
}

func compareQueries(base, fresh []Query, tol float64) []Violation {
	var out []Violation
	type key struct {
		policy string
		id     int
	}
	byKey := map[key]Query{}
	for _, q := range fresh {
		byKey[key{q.Policy, q.ID}] = q
	}
	for _, b := range base {
		where := fmt.Sprintf("queries[policy=%s,id=%d]", b.Policy, b.ID)
		f, ok := byKey[key{b.Policy, b.ID}]
		if !ok {
			out = append(out, missing(where))
			continue
		}
		out = gateCost(out, where+".cost_units", b.CostUnits, f.CostUnits, tol)
		if b.Rows != f.Rows {
			out = append(out, Violation{Where: where + ".rows",
				Msg: fmt.Sprintf("result cardinality changed: %d -> %d", b.Rows, f.Rows)})
		}
	}
	return out
}

// Summary renders a human-readable gate report: per-section best/worst
// deltas plus every violation.
func Summary(base, fresh *Result, tolPct float64, violations []Violation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regression gate: tolerance +%.1f%% on simulated cost\n", tolPct)
	fmt.Fprintf(&sb, "baseline: kind=%s %s go=%s scale=%g seed=%d\n",
		base.Meta.Kind, base.Meta.Timestamp, base.Meta.GoVersion, base.Meta.Scale, base.Meta.Seed)
	fmt.Fprintf(&sb, "fresh:    kind=%s %s go=%s scale=%g seed=%d\n",
		fresh.Meta.Kind, fresh.Meta.Timestamp, fresh.Meta.GoVersion, fresh.Meta.Scale, fresh.Meta.Seed)
	worst := math.Inf(-1)
	worstWhere := ""
	count := 0
	for _, b := range base.MemSweep {
		for _, f := range fresh.MemSweep {
			if f.BudgetRows == b.BudgetRows && b.CostUnits > 0 {
				d := (f.CostUnits - b.CostUnits) / b.CostUnits * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("mem_sweep[%d]", b.BudgetRows)
				}
			}
		}
	}
	for _, b := range base.FilterSweep {
		for _, f := range fresh.FilterSweep {
			if f.Selectivity == b.Selectivity && b.FilteredUnits > 0 {
				d := (f.FilteredUnits - b.FilteredUnits) / b.FilteredUnits * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("filter_sweep[%g]", b.Selectivity)
				}
			}
		}
	}
	for _, b := range base.ColumnarSweep {
		for _, f := range fresh.ColumnarSweep {
			if f.Encoding == b.Encoding && f.Selectivity == b.Selectivity && b.ColUnits > 0 {
				d := (f.ColUnits - b.ColUnits) / b.ColUnits * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("columnar_sweep[%s,%g]", b.Encoding, b.Selectivity)
				}
			}
		}
	}
	for _, b := range base.ShardSweep {
		for _, f := range fresh.ShardSweep {
			if f.Section == b.Section && f.Shards == b.Shards && f.Skew == b.Skew &&
				f.HotSplit == b.HotSplit && f.Mode == b.Mode && f.Workers == b.Workers &&
				b.MakespanUnits > 0 {
				d := (f.MakespanUnits - b.MakespanUnits) / b.MakespanUnits * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("shard_sweep[%s,%d,%g]", b.Section, b.Shards, b.Skew)
				}
			}
		}
	}
	for _, b := range base.NetShuffleSweep {
		for _, f := range fresh.NetShuffleSweep {
			if f.Section == b.Section && f.Shards == b.Shards && f.Skew == b.Skew &&
				f.HotSplit == b.HotSplit && f.Mode == b.Mode && f.Workers == b.Workers &&
				b.NetBytes > 0 {
				d := float64(f.NetBytes-b.NetBytes) / float64(b.NetBytes) * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("netshuffle_sweep[%s,%d,%g]", b.Section, b.Shards, b.Skew)
				}
			}
		}
	}
	for _, b := range base.ServerSweep {
		for _, f := range fresh.ServerSweep {
			if f.Clients == b.Clients && b.CostUnits > 0 {
				d := (f.CostUnits - b.CostUnits) / b.CostUnits * 100
				count++
				if d > worst {
					worst, worstWhere = d, fmt.Sprintf("server_sweep[%d]", b.Clients)
				}
			}
		}
	}
	if count > 0 {
		fmt.Fprintf(&sb, "worst cost delta: %+.2f%% (%s) over %d compared points\n", worst, worstWhere, count)
	}
	if len(violations) == 0 {
		sb.WriteString("PASS: no regressions beyond tolerance\n")
	} else {
		fmt.Fprintf(&sb, "FAIL: %d violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(&sb, "  - %s\n", v.String())
		}
	}
	return sb.String()
}
