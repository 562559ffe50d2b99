package catalog

import (
	"testing"

	"rqp/internal/storage"
	"rqp/internal/types"
)

func partitionTestTable(t *testing.T, rows int) (*Catalog, *Table) {
	t.Helper()
	cat := New()
	tb, err := cat.CreateTable("pt", types.Schema{
		{Name: "k", Kind: types.KindInt},
		{Name: "v", Kind: types.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		cat.Insert(nil, tb, types.Row{types.Int(int64(i * 37 % 101)), types.Int(int64(i))})
	}
	return cat, tb
}

func TestPartitionTableLayout(t *testing.T) {
	cat, tb := partitionTestTable(t, 500)
	if err := cat.PartitionTable(tb, "k", 4); err != nil {
		t.Fatal(err)
	}
	p := tb.Part()
	if p == nil || p.Shards != 4 || p.Col != 0 {
		t.Fatalf("partitioning = %+v", p)
	}
	if len(p.PageStart) != 5 || p.PageStart[0] != 0 || p.PageStart[4] != tb.Heap.NumPages() {
		t.Fatalf("page ranges = %v (pages=%d)", p.PageStart, tb.Heap.NumPages())
	}
	// Every row sits inside its key's shard page range, and no row was
	// lost or duplicated by the rebuild.
	total := 0
	var buf types.Row
	for pg := 0; pg < tb.Heap.NumPages(); pg++ {
		page := pg
		tb.Heap.ScanPage(nil, pg, nil, &buf, func(_ storage.RID, r types.Row) bool {
			total++
			s := int(types.HashRow([]types.Value{r[0]}) % uint64(p.Shards)) // the shuffle router's hash
			if page < p.PageStart[s] || page >= p.PageStart[s+1] {
				t.Fatalf("row key %v on page %d outside shard %d range %v", r[0], page, s, p.PageStart)
			}
			return true
		})
	}
	if total != 500 {
		t.Fatalf("rebuild lost rows: %d != 500", total)
	}
}

func TestPartitionTableRefusals(t *testing.T) {
	cat, tb := partitionTestTable(t, 50)
	if err := cat.PartitionTable(tb, "k", 1); err == nil {
		t.Error("shards=1 should be refused")
	}
	if err := cat.PartitionTable(tb, "nope", 4); err == nil {
		t.Error("unknown column should be refused")
	}
	if _, err := cat.CreateIndex(nil, "pt", "pt_k", []string{"k"}, false); err != nil {
		t.Fatal(err)
	}
	if err := cat.PartitionTable(tb, "k", 4); err == nil {
		t.Error("indexed table should be refused (rebuild breaks RIDs)")
	}
}

func TestPartitionInvalidatedByDML(t *testing.T) {
	cat, tb := partitionTestTable(t, 100)
	if err := cat.PartitionTable(tb, "k", 2); err != nil {
		t.Fatal(err)
	}
	if tb.Part() == nil {
		t.Fatal("partitioning missing after PartitionTable")
	}
	cat.Insert(nil, tb, types.Row{types.Int(1), types.Int(1)})
	if tb.Part() != nil {
		t.Error("DML must drop the shard-major layout guarantee")
	}
}
