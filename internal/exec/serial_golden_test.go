package exec

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

var updateSerial = flag.Bool("update-serial", false, "rewrite testdata/serial.golden from what DOP 1 returns now")

// serialCase is one statement of the serial golden: a plan maker over its
// catalog.
type serialCase struct {
	name string
	mk   func(columnar, rf bool) plan.Node
}

// serialRun is what one execution left behind: the rows (an FNV-64a hash of
// every value, in order), the integer cost, the workspace broker's grant and
// release sequence, the spill counters and how many runtime filters disabled
// themselves.
type serialRun struct {
	rows     []types.Row
	hash     uint64
	units    int64
	mem      string
	spill    string
	disabled int64
}

func (r serialRun) line() string {
	return fmt.Sprintf("hash=%016x rows=%d units=%d spill=%s disabled=%d mem=%s", r.hash, len(r.rows), r.units, r.spill, r.disabled, r.mem)
}

// hashRows hashes every value of rows in order, floats by their bits.
func hashRows(rows []types.Row) uint64 {
	h := fnv.New64a()
	var w [9]byte
	for _, r := range rows {
		for _, v := range r {
			w[0] = byte(v.K)
			u := uint64(v.I)
			if v.K == types.KindFloat {
				u = math.Float64bits(v.F)
			}
			binary.LittleEndian.PutUint64(w[1:], u)
			h.Write(w[:])
			h.Write([]byte(v.S))
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func serialCases(t *testing.T) []serialCase {
	var cases []serialCase
	chain := chainCatalog(t)
	for _, q := range chainQueries {
		cases = append(cases, serialCase{"chain/" + q.name, func(columnar, rf bool) plan.Node { return chainPlan(t, chain, q.sql, columnar, rf) }})
	}
	for _, q := range nestedQueries {
		cases = append(cases, serialCase{"nested/" + q.name, func(columnar, rf bool) plan.Node { return chainPlan(t, chain, q.sql, columnar, rf) }})
	}
	// TestColumnarMatchesHeapEverywhere's catalog and statements.
	col := colTestCatalog(t, 2000, 200, rand.New(rand.NewSource(41)))
	for i, q := range []string{
		"SELECT fact.k, fact.s FROM fact WHERE fact.k < 130",
		"SELECT fact.k, fact.grp FROM fact WHERE fact.grp <= 3000000",
		"SELECT fact.k FROM fact WHERE fact.s = 'g07'",
		"SELECT fact.k, fact.nn FROM fact WHERE fact.nn >= 25",
		"SELECT fact.k FROM fact WHERE fact.k >= 500 AND fact.s < 'g15' AND fact.nn <> 7",
		"SELECT fact.k, fact.s, fact.nn FROM fact WHERE fact.grp = 999",
		"SELECT fact.k, dim.w FROM fact, dim WHERE fact.k = dim.k AND fact.grp < 9000000",
	} {
		cases = append(cases, serialCase{fmt.Sprintf("columnar/%d", i), func(columnar, rf bool) plan.Node {
			root := colMkPlan(t, col, q, columnar)
			if rf {
				plan.PlanRuntimeFilters(root)
			}
			return root
		}})
	}
	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.TPCHTables {
		tb, _ := tpch.Table(name)
		tpch.BuildColumnar(tb, 512)
	}
	for _, name := range []string{"Q1", "Q3", "Q5", "Q6", "Q10"} {
		q := workload.TPCHQueries()[name]
		cases = append(cases, serialCase{"tpch/" + name, func(columnar, rf bool) plan.Node { return chainPlan(t, tpch, q, columnar, rf) }})
	}
	return cases
}

// aggregates reports whether the plan groups anywhere.
func aggregates(root plan.Node) bool {
	found := false
	plan.Walk(root, func(n plan.Node) {
		if _, ok := n.(*plan.AggNode); ok {
			found = true
		}
	})
	return found
}

var serialBudgets = []struct {
	name   string
	budget int
	sched  func(step int) int
}{
	{"unlimited", 1 << 30, nil},
	{"64", 64, nil},
	{"shrinking", 2048, func(step int) int { return max(2048>>step, 48) }},
}

func runSerialCell(t *testing.T, root plan.Node, rf bool, dop, budget int, sched func(int) int) serialRun {
	t.Helper()
	ctx := NewContext()
	ctx.DOP = dop
	ctx.Mem = NewMemBroker(budget)
	if sched != nil {
		ctx.Mem.SetSchedule(sched)
	}
	if rf {
		ctx.RF = NewRuntimeFilterSet(nil)
	}
	var mem []string
	ctx.Mem.OnEvent = func(kind string, rows, _, _ int) { mem = append(mem, fmt.Sprintf("%c%d", kind[0], rows)) }
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := serialRun{rows: rows, hash: hashRows(rows), units: ctx.Clock.UnitsScaled(), mem: strings.Join(mem, ",")}
	p, r, pg, d, f := ctx.Spill.Snapshot()
	out.spill = fmt.Sprintf("%d/%d/%d/%d/%d", p, r, pg, d, f)
	if ctx.RF != nil {
		_, _, _, out.disabled = ctx.RF.Snapshot()
	}
	return out
}

// TestSerialGolden holds execution to testdata/serial.golden, captured from
// the serial row operators before the morsel pipeline replaced them: the
// statements of TestSpillPipelineChainsExact, TestNestedBuildExact and
// TestColumnarMatchesHeapEverywhere and TPC-H-lite Q1/Q3/Q5/Q6/Q10, on heap
// and columnar scans, with runtime filters off and on, under an unlimited, a
// 64-row and a shrinking workspace budget, with every producer's previous row
// poisoned. One worker must reproduce the row hash, the integer cost, the
// broker's grant and release sequence and the spill counters, and so must two
// and eight — but for an aggregate they run as per-morsel partials: no grant
// of its own (so no spill of its own under a budget) and float sums
// reassociated. There only the row count, and without a budget the cost, must
// hold.
func TestSerialGolden(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	var b strings.Builder
	for _, c := range serialCases(t) {
		for _, columnar := range []bool{false, true} {
			for _, rf := range []bool{false, true} {
				for _, bud := range serialBudgets {
					root := c.mk(columnar, rf)
					cell := fmt.Sprintf("%s columnar=%v rf=%v budget=%s", c.name, columnar, rf, bud.name)
					want := runSerialCell(t, root, rf, 1, bud.budget, bud.sched)
					fmt.Fprintf(&b, "%s: %s\n", cell, want.line())
					for _, dop := range []int{2, 8} {
						got := runSerialCell(t, root, rf, dop, bud.budget, bud.sched)
						if got.disabled+want.disabled > 0 {
							got.units = want.units // where a filter disables itself races between workers
						}
						switch {
						case !aggregates(root):
							if got.line() != want.line() {
								t.Errorf("%s dop=%d:\n got  %s\n want %s", cell, dop, got.line(), want.line())
							}
						case len(got.rows) != len(want.rows) || bud.name == "unlimited" && got.units != want.units:
							t.Errorf("%s dop=%d: %d groups at %d units, dop 1 %d at %d", cell, dop, len(got.rows), got.units, len(want.rows), want.units)
						}
					}
				}
			}
		}
	}
	const path = "testdata/serial.golden"
	if *updateSerial {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
