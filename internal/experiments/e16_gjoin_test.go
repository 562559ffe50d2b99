package experiments

import (
	"testing"

	"rqp/internal/exec"
	"rqp/internal/obs"
	"rqp/internal/plan"
)

// TestGJoinSpillVisible: on E16's shape at its 2048-row budget, a g-join
// whose smaller input exceeds the grant splits it into grant-sized runs —
// 4 of the 8 192 inner rows, 10 of the 20 000 outer ones against 32 768 —
// and says so: partitions, rows and pages at depth 0 in the spill counters
// and a spill.partition event, at the cost E16 has always charged it.
func TestGJoinSpillVisible(t *testing.T) {
	for _, tc := range []struct {
		inner, parts, rows, pages int
		units                     int64
	}{
		{8192, 4, 28192, 441, 2668800000},
		{32768, 10, 52768, 825, 4819200000},
	} {
		cat, err := buildJoinPair(20000, tc.inner)
		if err != nil {
			t.Fatal(err)
		}
		outer, _ := cat.Table("outer_t")
		inner, _ := cat.Table("inner_t")
		ctx := exec.NewContext()
		ctx.Mem = exec.NewMemBroker(2048)
		ctx.Trace = obs.NewTrace(ctx.Clock)
		if _, err := exec.Run(joinNode(plan.JoinGeneral, outer, "o", inner, "i", 20000), ctx); err != nil {
			t.Fatal(err)
		}
		parts, rows, pages, depth, _ := ctx.Spill.Snapshot()
		if parts != tc.parts || rows != tc.rows || pages != tc.pages || depth != 0 {
			t.Errorf("inner=%d: spill %d partitions, %d rows, %d pages at depth %d; want %d, %d, %d at 0",
				tc.inner, parts, rows, pages, depth, tc.parts, tc.rows, tc.pages)
		}
		if n := ctx.Trace.CountEvents("spill.partition"); n != 1 {
			t.Errorf("inner=%d: %d spill.partition events, want 1", tc.inner, n)
		}
		if u := ctx.Clock.UnitsScaled(); u != tc.units {
			t.Errorf("inner=%d: %d units, want %d", tc.inner, u, tc.units)
		}
	}
}
