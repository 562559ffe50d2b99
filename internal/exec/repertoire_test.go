package exec

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

// TestAllEnumeratedPlansAgree is the plan-repertoire correctness invariant
// behind Metric2/Metric3: every plan the optimizer can enumerate — any join
// order, any algorithm, any access path — must compute the same result.
func TestAllEnumeratedPlansAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := catalog.New()
	mk := func(name string, rows int, mod int64, withIndex bool) {
		tb, err := cat.CreateTable(name, types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			cat.Insert(nil, tb, types.Row{types.Int(rng.Int63n(mod)), types.Int(int64(i))})
		}
		if withIndex {
			if _, err := cat.CreateIndex(nil, name, name+"_k", []string{"k"}, false); err != nil {
				t.Fatal(err)
			}
		}
		cat.AnalyzeTable(tb, 8)
	}
	mk("ra", 150, 20, true)
	mk("rb", 80, 20, false)
	mk("rc", 40, 20, true)

	queries := []string{
		`SELECT ra.v, rb.v FROM ra, rb WHERE ra.k = rb.k AND ra.v < 100`,
		`SELECT ra.v, rb.v, rc.v FROM ra, rb, rc WHERE ra.k = rb.k AND rb.k = rc.k AND rc.v < 30`,
		`SELECT COUNT(*) FROM ra, rb, rc WHERE ra.k = rb.k AND rb.k = rc.k`,
	}
	for _, q := range queries {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.New(cat)
		o.Opt.CrossProducts = true
		plans, err := o.EnumerateFullPlans(bq, nil, 200)
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) < 6 {
			t.Fatalf("%q: only %d plans enumerated", q, len(plans))
		}
		var ref []string
		algsSeen := map[string]bool{}
		for pi, p := range plans {
			sig := plan.PlanSignature(p.Root)
			for _, alg := range []string{"HashJoin", "MergeJoin", "NestedLoopJoin", "IndexNLJoin"} {
				if strings.Contains(sig, alg) {
					algsSeen[alg] = true
				}
			}
			rows, err := Run(p.Root, NewContext())
			if err != nil {
				t.Fatalf("%q plan %d (%s): %v", q, pi, sig, err)
			}
			got := make([]string, len(rows))
			for i, r := range rows {
				got[i] = r.String()
			}
			sort.Strings(got)
			if ref == nil {
				ref = got
				continue
			}
			if strings.Join(got, ";") != strings.Join(ref, ";") {
				t.Fatalf("%q plan %d (%s) diverges: %d rows vs %d", q, pi, sig, len(got), len(ref))
			}
		}
		if len(algsSeen) < 3 {
			t.Errorf("%q: repertoire too narrow in enumeration: %v", q, algsSeen)
		}
	}
}

// TestForcedAlgorithmsOnDuplicateHeavyData stresses each join algorithm on
// inputs where every key has many duplicates on both sides (the classic
// merge-join group-replay trap).
func TestForcedAlgorithmsOnDuplicateHeavyData(t *testing.T) {
	cat := catalog.New()
	la, _ := cat.CreateTable("la", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}})
	lb, _ := cat.CreateTable("lb", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "y", Kind: types.KindInt}})
	for i := 0; i < 60; i++ {
		cat.Insert(nil, la, types.Row{types.Int(int64(i % 3)), types.Int(int64(i))})
	}
	for i := 0; i < 40; i++ {
		cat.Insert(nil, lb, types.Row{types.Int(int64(i % 3)), types.Int(int64(i))})
	}
	cat.AnalyzeTable(la, 4)
	cat.AnalyzeTable(lb, 4)
	// Expected: per key 20×~13 pairings; total = 20*14 + 20*13 + 20*13 = 800
	want := 0
	for k := 0; k < 3; k++ {
		na, nb := 0, 0
		for i := 0; i < 60; i++ {
			if i%3 == k {
				na++
			}
		}
		for i := 0; i < 40; i++ {
			if i%3 == k {
				nb++
			}
		}
		want += na * nb
	}
	st, _ := sql.Parse("SELECT la.x, lb.y FROM la, lb WHERE la.k = lb.k")
	for _, alg := range []plan.JoinAlg{plan.JoinHash, plan.JoinMerge, plan.JoinNL, plan.JoinGeneral} {
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatal(err)
		}
		o := opt.New(cat)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite the join algorithm in place (the executor dispatches on it).
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok {
				j.Alg = alg
			}
		})
		rows, err := Run(root, NewContext())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(rows) != want {
			t.Errorf("%v produced %d rows, want %d", alg, len(rows), want)
		}
	}
}

// TestJoinsWithNullKeys: NULL join keys must never match, in any algorithm.
func TestJoinsWithNullKeys(t *testing.T) {
	cat := catalog.New()
	na, _ := cat.CreateTable("na", types.Schema{{Name: "k", Kind: types.KindInt}})
	nb, _ := cat.CreateTable("nb", types.Schema{{Name: "k", Kind: types.KindInt}})
	cat.Insert(nil, na, types.Row{types.Int(1)})
	cat.Insert(nil, na, types.Row{types.Null()})
	cat.Insert(nil, na, types.Row{types.Int(2)})
	cat.Insert(nil, nb, types.Row{types.Null()})
	cat.Insert(nil, nb, types.Row{types.Int(1)})
	cat.AnalyzeTable(na, 2)
	cat.AnalyzeTable(nb, 2)
	st, _ := sql.Parse("SELECT na.k FROM na, nb WHERE na.k = nb.k")
	for _, alg := range []plan.JoinAlg{plan.JoinHash, plan.JoinMerge, plan.JoinNL, plan.JoinGeneral} {
		bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
		o := opt.New(cat)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok {
				j.Alg = alg
			}
		})
		rows, err := Run(root, NewContext())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(rows) != 1 || rows[0][0].I != 1 {
			t.Errorf("%v: NULL keys must not join: got %d rows", alg, len(rows))
		}
	}
}

// TestLeftOuterJoinAllAlgorithms checks null extension under both
// executable outer-join algorithms.
func TestLeftOuterJoinAllAlgorithms(t *testing.T) {
	cat := catalog.New()
	oa, _ := cat.CreateTable("oa", types.Schema{{Name: "k", Kind: types.KindInt}})
	ob, _ := cat.CreateTable("ob", types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}})
	for i := 0; i < 10; i++ {
		cat.Insert(nil, oa, types.Row{types.Int(int64(i))})
	}
	for i := 0; i < 5; i++ {
		cat.Insert(nil, ob, types.Row{types.Int(int64(i * 2)), types.Int(int64(i))})
	}
	cat.AnalyzeTable(oa, 2)
	cat.AnalyzeTable(ob, 2)
	st, _ := sql.Parse("SELECT oa.k, ob.v FROM oa LEFT JOIN ob ON oa.k = ob.k")
	for _, alg := range []plan.JoinAlg{plan.JoinHash, plan.JoinNL} {
		bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
		o := opt.New(cat)
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(root, func(n plan.Node) {
			if j, ok := n.(*plan.JoinNode); ok && j.Type == plan.LeftOuter {
				j.Alg = alg
			}
		})
		rows, err := Run(root, NewContext())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(rows) != 10 {
			t.Fatalf("%v: left join rows = %d, want 10", alg, len(rows))
		}
		nulls := 0
		for _, r := range rows {
			if r[1].IsNull() {
				nulls++
			}
		}
		if nulls != 5 {
			t.Errorf("%v: null-extended rows = %d, want 5", alg, nulls)
		}
	}
}
