package exec

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rqp/internal/types"
	"rqp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the goldens of the tests run (testdata/agg_float.golden, testdata/joins.golden) from what they return now")

// TestAggregateFloatGolden holds every grouped TPC-H-lite statement to the
// bits it returned when testdata/agg_float.golden was captured (PR 22's
// commit, before the aggregation table): float SUM and AVG depend on the
// order a group's inputs are added in — arrival order inside a morsel, morsel
// order across, resident groups before spilled partitions — so a table that
// reorders accumulation or merge shows up here in the last bit. LIMITs are
// dropped so that every group is compared, not the top ten.
func TestAggregateFloatGolden(t *testing.T) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, name := range []string{"Q1", "Q3", "Q5", "Q10"} {
		q, _, _ := strings.Cut(workload.TPCHQueries()[name], " LIMIT")
		for _, cfg := range []struct {
			label    string
			dop, mem int
		}{{"dop=1", 1, 0}, {"dop=2", 2, 0}, {"dop=1 mem=64", 1, 64}} {
			root := parallelPlanFor(t, cat, q)
			ctx := NewContext()
			ctx.DOP = cfg.dop
			if cfg.mem > 0 {
				ctx.Mem = NewMemBroker(cfg.mem)
			}
			rows, err := Run(root, ctx)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg.label, err)
			}
			fmt.Fprintf(&b, "# %s %s: %d rows\n", name, cfg.label, len(rows))
			for _, r := range rows {
				for i, v := range r {
					if i > 0 {
						b.WriteByte(' ')
					}
					if v.K == types.KindFloat {
						fmt.Fprintf(&b, "f%016x", math.Float64bits(v.F))
					} else {
						b.WriteString(v.String())
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	const path = "testdata/agg_float.golden"
	if *updateGolden {
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
	section := ""
	for i := range got {
		if strings.HasPrefix(wantLines[i], "#") {
			section = wantLines[i]
		}
		if got[i] != wantLines[i] {
			t.Fatalf("line %d (%s):\n got  %s\n want %s", i+1, section, got[i], wantLines[i])
		}
	}
}
