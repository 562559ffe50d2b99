package adaptive

import (
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// TestLEOLearnsThatATableGrew: statistics analyzed at 1 000 rows, then 9 000
// more inserted. The first run of a filtered scan estimates from the stale
// row count (800) and reads 8 000; the second estimate follows the actual
// past the analyzed 1 000, because a learned factor has no ceiling.
func TestLEOLearnsThatATableGrew(t *testing.T) {
	cat := catalog.New()
	tb, err := cat.CreateTable("t", types.Schema{{Name: "a", Kind: types.KindInt}, {Name: "b", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			cat.Insert(nil, tb, types.Row{types.Int(int64(i % 10)), types.Int(int64(i))})
		}
	}
	const analyzed = 1000
	insert(0, analyzed)
	cat.AnalyzeTable(tb, 16)
	insert(analyzed, 10*analyzed)

	o := opt.New(cat)
	var est [2]float64
	var actual float64
	for round := range est {
		root, err := o.Optimize(bindSelect(t, cat, "SELECT b FROM t WHERE a < 8"), nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(root, func(n plan.Node) {
			if _, ok := n.(*plan.ScanNode); ok {
				est[round] = n.Props().EstRows
			}
		})
		ctx := exec.NewContext()
		AttachLEO(ctx, o.Cards)
		rows, err := exec.Run(root, ctx)
		if err != nil {
			t.Fatal(err)
		}
		actual = float64(len(rows))
	}
	if est[0] > analyzed || actual != 8*analyzed {
		t.Fatalf("first estimate %v, actual %v: want at most %d and 8000", est[0], actual, analyzed)
	}
	if est[1] < 0.9*actual || est[1] > 1.1*actual {
		t.Errorf("after one run LEO estimates %v rows, want the actual %v", est[1], actual)
	}
}

// TestRioPicksOnePlan: Rio visits the plans of its corners in signature order
// and breaks equal cost and equal regret on the signature, so TPC-H-lite's Q5,
// whose candidates tie, gets one plan however often it is chosen.
func TestRioPicksOnePlan(t *testing.T) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bq := bindSelect(t, cat, workload.TPCHQueries()["Q5"])
	r := &Rio{Opt: opt.New(cat)}
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		root, _, err := r.Choose(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[plan.PlanSignature(root)] = true
	}
	if len(seen) != 1 {
		t.Errorf("Rio chose %d different plans for Q5 in 20 runs", len(seen))
	}
}
