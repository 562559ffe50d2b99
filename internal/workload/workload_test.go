package workload

import (
	"testing"

	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func TestBuildStar(t *testing.T) {
	cfg := DefaultStar()
	cfg.FactRows = 2000
	cat, err := BuildStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fact, ok := cat.Table("fact")
	if !ok || fact.Heap.NumRows() != 2000 {
		t.Fatalf("fact rows = %v", fact.Heap.NumRows())
	}
	// pseudo must be perfectly correlated with attr
	fact.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
		if r[2].I != r[1].I*cfg.PseudoFactor {
			t.Fatalf("pseudo not correlated: %v", r)
		}
		return true
	})
	dim1, _ := cat.Table("dim1")
	if dim1.Heap.NumRows() != int64(cfg.DimRows) {
		t.Errorf("dim1 rows = %v", dim1.Heap.NumRows())
	}
	if fact.Stats.RowCount != 2000 {
		t.Error("fact not analyzed")
	}
}

func TestStarWorkloadRunnable(t *testing.T) {
	cfg := DefaultStar()
	cfg.FactRows = 2000
	cat, err := BuildStar(cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := StarWorkload(cfg, 10, 0.5, 3)
	if len(queries) != 10 {
		t.Fatalf("queries = %d", len(queries))
	}
	trapped := 0
	o := opt.New(cat)
	for _, q := range queries {
		if q.Trapped {
			trapped++
		}
		st, err := sql.Parse(q.SQL)
		if err != nil {
			t.Fatalf("parse %q: %v", q.SQL, err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatal(err)
		}
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(root, exec.NewContext()); err != nil {
			t.Fatal(err)
		}
	}
	if trapped == 0 || trapped == 10 {
		t.Errorf("trap fraction not mixed: %d/10", trapped)
	}
}

func TestTrappedQueryUnderestimated(t *testing.T) {
	cfg := DefaultStar()
	cfg.FactRows = 5000
	cat, _ := BuildStar(cfg)
	o := opt.New(cat)
	st, _ := sql.Parse("SELECT COUNT(*) FROM fact WHERE fact.attr = 2 AND fact.pseudo = 6")
	bq, _ := plan.Bind(st.(*sql.SelectStmt), cat)
	root, err := o.Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewContext()
	rows, err := exec.Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(rows[0][0].I)
	var scanEst float64
	plan.Walk(root, func(n plan.Node) {
		if _, ok := n.(*plan.ScanNode); ok {
			scanEst = n.Props().EstRows
		}
	})
	if actual < 10 {
		t.Skipf("zipf draw left attr=2 rare (%v rows)", actual)
	}
	if scanEst > actual/3 {
		t.Errorf("correlation trap should underestimate: est=%v actual=%v", scanEst, actual)
	}
}

func TestBuildTPCHAndQueries(t *testing.T) {
	cat, err := BuildTPCH(TPCHConfig{Scale: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range TPCHTables {
		tb, ok := cat.Table(name)
		if !ok || tb.Heap.NumRows() == 0 {
			t.Fatalf("table %s missing or empty", name)
		}
	}
	o := opt.New(cat)
	for name, q := range TPCHQueries() {
		st, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("%s parse: %v", name, err)
		}
		bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
		if err != nil {
			t.Fatalf("%s bind: %v", name, err)
		}
		root, err := o.Optimize(bq, nil)
		if err != nil {
			t.Fatalf("%s optimize: %v", name, err)
		}
		if _, err := exec.Run(root, exec.NewContext()); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
	}
}

func TestPerturbTPCHQueryRunnable(t *testing.T) {
	cat, _ := BuildTPCH(TPCHConfig{Scale: 0.2, Seed: 2})
	o := opt.New(cat)
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		for round := 0; round < 3; round++ {
			q := PerturbTPCHQuery(name, round)
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("%s round %d: %v\n%s", name, round, err, q)
			}
			bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
			if err != nil {
				t.Fatal(err)
			}
			root, err := o.Optimize(bq, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exec.Run(root, exec.NewContext()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTPCCTransactions(t *testing.T) {
	cfg := DefaultTPCC()
	tp, err := BuildTPCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := storage.NewClock(storage.DefaultCostModel())
	for i := 0; i < 50; i++ {
		if err := tp.NewOrder(clk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := tp.Payment(clk); err != nil {
			t.Fatal(err)
		}
	}
	if tp.nextOrder != 50 {
		t.Errorf("orders = %d", tp.nextOrder)
	}
	ol, _ := tp.Cat.Table("orderline")
	if ol.Heap.NumRows() < 50*5 {
		t.Errorf("orderlines = %d, want >= 250", ol.Heap.NumRows())
	}
	if clk.Units() <= 0 {
		t.Error("transactions should consume cost")
	}
}

func TestEquivalencePacksRunnable(t *testing.T) {
	cat, _ := BuildTPCH(TPCHConfig{Scale: 0.2, Seed: 3})
	o := opt.New(cat)
	for _, pack := range EquivalencePacks() {
		var counts []int64
		for _, q := range pack.Queries {
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", pack.Name, q, err)
			}
			bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
			if err != nil {
				t.Fatalf("%s: %v", pack.Name, err)
			}
			root, err := o.Optimize(bq, nil)
			if err != nil {
				t.Fatalf("%s: %v", pack.Name, err)
			}
			rows, err := exec.Run(root, exec.NewContext())
			if err != nil {
				t.Fatalf("%s: %v", pack.Name, err)
			}
			counts = append(counts, rows[0][0].I)
		}
		for i := 1; i < len(counts); i++ {
			if counts[i] != counts[0] {
				t.Errorf("pack %s: member %d returned %d, member 0 returned %d",
					pack.Name, i, counts[i], counts[0])
			}
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	a, b := NewGen(5), NewGen(5)
	for i := 0; i < 100; i++ {
		if a.Uniform(1000) != b.Uniform(1000) {
			t.Fatal("generator not deterministic")
		}
	}
	g := NewGen(6)
	z := g.ZipfSeq(100, 1.5)
	low, high := 0, 0
	for i := 0; i < 1000; i++ {
		if z() < 10 {
			low++
		} else {
			high++
		}
	}
	if low <= high {
		t.Errorf("zipf should skew low: low=%d high=%d", low, high)
	}
	if g.Name("x", 42) != NewGen(0).Name("x", 42) {
		t.Error("Name should be deterministic in id")
	}
}
