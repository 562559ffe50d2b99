package core

import (
	"testing"

	"rqp/internal/types"
	"rqp/internal/workload"
)

// discard is the sink of a client that reads and drops: the statement pays
// for producing its rows, not for keeping them.
type discard struct{}

func (discard) Columns([]string)    {}
func (discard) Row(types.Row) error { return nil }

// TestAllocCeilingPointLookup pins what the statement cache buys. A cached
// statement goes from its text to exec.Drain: no parse, no bind, and inside
// its plan's region no optimize. The ceilings sit about 20% above what this
// commit measures (18, 26, 54 and 28); its parent, measured the same way,
// allocated 156 times for the orders lookup, 272 for customer ⋈ nation, 986
// for the four-table lookup (DP enumeration over four relations) and 240 for
// Q6 (parse and bind only: its literal text already hit the plan cache).
func TestAllocCeilingPointLookup(t *testing.T) {
	e, _ := lookupEngines(t, 1)
	key := []types.Value{types.Int(7)}
	for _, tc := range []struct {
		name    string
		sql     string
		params  []types.Value
		ceiling float64
	}{
		{"orders by key", lookupOrder, key, 22},
		{"customer ⋈ nation by key", lookupCust, key, 32},
		{"orders ⋈ lineitem ⋈ customer ⋈ nation by key", lookupLines, key, 65},
		{"literal Q6", workload.TPCHQueries()["Q6"], nil, 34},
	} {
		run := func() {
			if _, err := e.ExecStream(tc.sql, nil, discard{}, tc.params...); err != nil {
				t.Fatal(err)
			}
		}
		run() // the miss: parse, bind, optimize, enter
		if allocs := testing.AllocsPerRun(20, run); allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per cached execution, ceiling %.0f", tc.name, allocs, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per cached execution", tc.name, allocs)
		}
	}
}
