package opt

import (
	"fmt"
	"math"
	"testing"

	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// TestColScanEstimateTracksDelta is a one-table robustness map on the write
// axis: k% of orders' pages are rewritten after its snapshot was built (each
// with one row updated to itself, so the rows stay the same), for k = 0, 1,
// 10, 50 and 100. The ColScan estimate rises with k from its pin at k = 0
// and crosses the heap's; the optimizer takes SeqScan from the first k where
// it does. Wherever it takes ColScan, the estimate lies within 0.8–1.25× of
// the executed cost, which is pinned at every k.
func TestColScanEstimateTracksDelta(t *testing.T) {
	const q = `SELECT o_custkey, COUNT(*), SUM(o_totalprice) FROM orders
		WHERE o_orderdate >= DATE(8500) AND o_orderdate < DATE(8530) GROUP BY o_custkey ORDER BY o_custkey`
	const k0Estimate = 82.4548 // the ColScan estimate with no write since the build
	executed := map[int]float64{0: 80.823, 1: 83.787, 10: 108.957, 50: 219.591, 100: 326.037}
	var prevEst float64
	var wantRows string
	for _, k := range []int{0, 1, 10, 50, 100} {
		cat := benchCatalog(t, 8)
		orders, _ := cat.Table("orders")
		cat.BuildColumnar(orders, storage.DefaultColBlock)
		npages := orders.Heap.NumPages()
		n := (k*npages + 99) / 100
		for j := 0; j < n; j++ {
			var rid storage.RID
			var row types.Row
			orders.Heap.ScanPage(nil, j*npages/n, func(id storage.RID, r types.Row) bool {
				rid, row = id, r
				return false
			})
			cat.Update(nil, orders, rid, row)
		}
		o := New(cat)
		o.Opt.Columnar = true
		root, err := o.Optimize(bindQ(t, cat, q), nil)
		if err != nil {
			t.Fatal(err)
		}
		var scan *plan.ScanNode
		plan.Walk(root, func(n plan.Node) {
			if s, ok := n.(*plan.ScanNode); ok {
				scan = s
			}
		})
		rel := BaseRelFromTable(orders, "orders")
		colEst, _ := o.colScanCost(&rel, expr.Conjuncts(scan.Filter), nil, scan.Cols, scan.Prop.EstRows)
		seqEst := o.costSeqScan(rel.Pages, rel.Rows)
		ctx := exec.NewContext()
		rows, err := exec.Run(root, ctx)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("k=%3d%% (%3d pages): ColScan est %7.2f, SeqScan est %7.2f, chose %s, executed %.4f",
			k, n, colEst, seqEst, scan.Title, ctx.Clock.Units())

		if k == 0 {
			wantRows = fmt.Sprint(rows)
			if math.Abs(colEst-k0Estimate) > 5e-5 {
				t.Errorf("k=0: ColScan estimate %.4f, want %.4f", colEst, k0Estimate)
			}
		} else if colEst <= prevEst {
			t.Errorf("k=%d: ColScan estimate %.4f did not rise from %.4f", k, colEst, prevEst)
		}
		prevEst = colEst
		if scan.Columnar != (colEst < seqEst) {
			t.Errorf("k=%d: chose %s with ColScan at %.2f and SeqScan at %.2f", k, scan.Title, colEst, seqEst)
		}
		if scan.Columnar && scan.Prop.EstCost != colEst {
			t.Errorf("k=%d: the plan's ColScan estimate %.4f is not colScanCost's %.4f", k, scan.Prop.EstCost, colEst)
		}
		if got := fmt.Sprint(rows); got != wantRows {
			t.Errorf("k=%d: rows differ from k=0's", k)
		}
		got := ctx.Clock.Units()
		if math.Abs(got-executed[k]) > 5e-5 {
			t.Errorf("k=%d: executed %.4f units, pinned %.4f", k, got, executed[k])
		}
		if r := colEst / got; scan.Columnar && (r < 0.8 || r > 1.25) {
			t.Errorf("k=%d: ColScan estimate %.2f is %.2f× the executed %.2f, outside 0.8–1.25×", k, colEst, r, got)
		}
	}
}
