package experiments

import (
	"fmt"
	"math"

	"rqp/internal/catalog"
	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E16GJoin evaluates Graefe's generalized join: across a sweep of
// build-side sizes (spanning the in-memory / spill boundary), each join
// algorithm is forced and timed. The robustness claim to reproduce: the
// g-join is never the winner by much but never falls off a cliff, so the
// worst-case regret of *always* using g-join is small, while each
// traditional algorithm has a region where a mistaken choice is
// catastrophic (NL at scale, index-probing storms, merge sort overhead).
func E16GJoin(scale float64) (*Report, error) {
	outerRows := scaleInt(20000, scale)
	r := newReport("E16", "generalized join vs the traditional repertoire")
	memBudget := 2048

	algs := []plan.JoinAlg{plan.JoinHash, plan.JoinMerge, plan.JoinNL, plan.JoinGeneral}
	worstRegret := map[plan.JoinAlg]float64{}

	for _, innerRows := range []int{64, 1024, scaleInt(8192, scale), scaleInt(32768, scale)} {
		cat, err := buildJoinPair(outerRows, innerRows)
		if err != nil {
			return nil, err
		}
		times := map[plan.JoinAlg]float64{}
		best := math.Inf(1)
		for _, alg := range algs {
			t, err := timeForcedJoin(cat, alg, memBudget)
			if err != nil {
				return nil, err
			}
			times[alg] = t
			if t < best {
				best = t
			}
		}
		row := fmt.Sprintf("inner=%6d: ", innerRows)
		for _, alg := range algs {
			regret := times[alg] / best
			if regret > worstRegret[alg] {
				worstRegret[alg] = regret
			}
			row += fmt.Sprintf("%s=%.0f (%.1fx) ", alg, times[alg], regret)
		}
		r.Printf("%s", row)
	}
	r.Printf("worst-case regret of always using one algorithm:")
	for _, alg := range algs {
		r.Printf("  %-14s %.1fx", alg, worstRegret[alg])
	}
	r.Set("regret_gjoin", worstRegret[plan.JoinGeneral])
	r.Set("regret_nl", worstRegret[plan.JoinNL])
	r.Set("regret_hash", worstRegret[plan.JoinHash])
	r.Set("regret_merge", worstRegret[plan.JoinMerge])
	return r, nil
}

func buildJoinPair(outerRows, innerRows int) (*catalog.Catalog, error) {
	cat := catalog.New()
	g := workload.NewGen(41)
	outer, err := cat.CreateTable("outer_t", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < outerRows; i++ {
		cat.Insert(nil, outer, workload.IntRow(g.Uniform(int64(innerRows)), int64(i)))
	}
	inner, err := cat.CreateTable("inner_t", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "w", Kind: types.KindInt},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < innerRows; i++ {
		cat.Insert(nil, inner, workload.IntRow(int64(i), int64(i%7)))
	}
	cat.AnalyzeTable(outer, 16)
	cat.AnalyzeTable(inner, 16)
	return cat, nil
}

// timeForcedJoin builds the physical join by hand so the algorithm choice
// is exact (not filtered through the optimizer's repertoire flags).
func timeForcedJoin(cat *catalog.Catalog, alg plan.JoinAlg, memBudget int) (float64, error) {
	outer, _ := cat.Table("outer_t")
	inner, _ := cat.Table("inner_t")
	o := opt.New(cat)
	o.Opt.MemBudgetRows = memBudget

	mkScan := func(t *catalog.Table, alias string) *plan.ScanNode {
		s := &plan.ScanNode{Table: t, Alias: alias}
		s.Out = t.Schema.WithTable(alias)
		s.Title = "SeqScan(" + alias + ")"
		s.Prop = plan.Props{EstRows: float64(t.Heap.NumRows())}
		return s
	}
	l := mkScan(outer, "o")
	rr := mkScan(inner, "i")
	j := &plan.JoinNode{Alg: alg, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	j.Kids = []plan.Node{l, rr}
	j.Out = l.Out.Concat(rr.Out)
	j.Title = alg.String()
	j.Prop = plan.Props{EstRows: float64(outer.Heap.NumRows())}

	ctx := exec.NewContext()
	ctx.Mem = exec.NewMemBroker(memBudget)
	rows, err := exec.Run(j, ctx)
	if err != nil {
		return 0, err
	}
	_ = rows
	return ctx.Clock.Units(), nil
}

// Quiet the expr import if forced-join construction changes.
var _ = expr.OpEQ
