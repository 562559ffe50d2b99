package experiments

import (
	"fmt"
	"math"

	"rqp/internal/catalog"
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
	if _, err := addTable(cat, "outer_t", intCols("k", "v"), outerRows, 16, func(i int) types.Row {
		return workload.IntRow(g.Uniform(int64(innerRows)), int64(i))
	}); err != nil {
		return nil, err
	}
	_, err := addTable(cat, "inner_t", intCols("k", "w"), innerRows, 16, func(i int) types.Row {
		return workload.IntRow(int64(i), int64(i%7))
	})
	return cat, err
}

// timeForcedJoin builds the physical join by hand so the algorithm choice
// is exact (not filtered through the optimizer's repertoire flags).
func timeForcedJoin(cat *catalog.Catalog, alg plan.JoinAlg, memBudget int) (float64, error) {
	outer, _ := cat.Table("outer_t")
	inner, _ := cat.Table("inner_t")
	k := defaults()
	k.MemBudgetRows = memBudget
	run, err := execute(cat, k, stmt{root: joinNode(alg, outer, "o", inner, "i", float64(outer.Heap.NumRows()))})
	if err != nil {
		return 0, err
	}
	return run.cost(), nil
}

// joinNode is a hand-built inner join of two tables' sequential scans on
// their first columns, the left side probing, estimated at est rows.
func joinNode(alg plan.JoinAlg, left *catalog.Table, la string, right *catalog.Table, ra string, est float64) plan.Node {
	j := &plan.JoinNode{Alg: alg, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	for _, side := range []struct {
		t     *catalog.Table
		alias string
	}{{left, la}, {right, ra}} {
		s := &plan.ScanNode{Table: side.t, Alias: side.alias}
		s.Out = side.t.Schema.WithTable(side.alias)
		s.Title = "SeqScan(" + side.alias + ")"
		s.Prop = plan.Props{EstRows: float64(side.t.Heap.NumRows())}
		j.Kids, j.Out = append(j.Kids, s), j.Out.Concat(s.Out)
	}
	j.Title = alg.String()
	j.Prop = plan.Props{EstRows: est}
	return j
}
