package catalog

import (
	"strings"
	"testing"

	"rqp/internal/index"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func testSchema() types.Schema {
	return types.Schema{
		{Name: "id", Kind: types.KindInt},
		{Name: "grp", Kind: types.KindInt},
		{Name: "name", Kind: types.KindString},
	}
}

func TestCreateAndLookupTable(t *testing.T) {
	c := New()
	tb, err := c.CreateTable("t", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Schema[0].Table != "t" {
		t.Error("schema should be qualified by table name")
	}
	if _, err := c.CreateTable("T", testSchema()); err == nil {
		t.Error("duplicate create (case-insensitive) should fail")
	}
	got, ok := c.Table("T")
	if !ok || got != tb {
		t.Error("case-insensitive lookup failed")
	}
	if len(c.Tables()) != 1 {
		t.Error("Tables() wrong")
	}
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Table("t"); ok {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("dropping missing table should fail")
	}
}

func loadRows(c *Catalog, tb *Table, n int) {
	for i := 0; i < n; i++ {
		c.Insert(nil, tb, types.Row{
			types.Int(int64(i)),
			types.Int(int64(i % 10)),
			types.Str("row"),
		})
	}
}

func TestInsertMaintainsIndexes(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	loadRows(c, tb, 50)
	ix, err := c.CreateIndex(nil, "t", "t_grp", []string{"grp"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 50 {
		t.Fatalf("index built with %d entries", ix.Tree.Len())
	}
	// Inserts after index creation must be reflected.
	c.Insert(nil, tb, types.Row{types.Int(100), types.Int(3), types.Str("new")})
	n := 0
	ix.Tree.Lookup(nil, []types.Value{types.Int(3)}, func(index.Entry) bool { n++; return true })
	if n != 6 { // 5 original (3,13,23,33,43) + 1 new
		t.Errorf("lookup grp=3 found %d, want 6", n)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	var rids []storage.RID
	for i := 0; i < 20; i++ {
		rids = append(rids, c.Insert(nil, tb, types.Row{types.Int(int64(i)), types.Int(int64(i % 2)), types.Str("x")}))
	}
	ix, _ := c.CreateIndex(nil, "t", "t_id", []string{"id"}, true)
	if !c.Delete(nil, tb, rids[5]) {
		t.Fatal("delete failed")
	}
	if c.Delete(nil, tb, rids[5]) {
		t.Error("double delete should fail")
	}
	n := 0
	ix.Tree.Lookup(nil, []types.Value{types.Int(5)}, func(index.Entry) bool { n++; return true })
	if n != 0 {
		t.Errorf("deleted row still indexed")
	}
	if tb.Heap.NumRows() != 19 {
		t.Errorf("heap rows = %d", tb.Heap.NumRows())
	}
}

func TestCreateIndexErrors(t *testing.T) {
	c := New()
	if _, err := c.CreateIndex(nil, "missing", "i", []string{"x"}, false); err == nil {
		t.Error("index on missing table should fail")
	}
	tb, _ := c.CreateTable("t", testSchema())
	_ = tb
	if _, err := c.CreateIndex(nil, "t", "i", []string{"nope"}, false); err == nil {
		t.Error("index on missing column should fail")
	}
	if _, err := c.CreateIndex(nil, "t", "i", []string{"id"}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateIndex(nil, "t", "i", []string{"grp"}, false); err == nil {
		t.Error("duplicate index name should fail")
	}
}

func TestDropIndex(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	c.CreateIndex(nil, "t", "i", []string{"id"}, false)
	if err := c.DropIndex("t", "i"); err != nil {
		t.Fatal(err)
	}
	if tb.IndexNamed("i") != nil {
		t.Error("dropped index still resolvable")
	}
	if tb.IndexOn(0) != nil {
		t.Error("IndexOn should skip dropped indexes")
	}
	if err := c.DropIndex("t", "i"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestAnalyzeTable(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	loadRows(c, tb, 100)
	c.AnalyzeTable(tb, 8)
	if tb.Stats.RowCount != 100 {
		t.Errorf("RowCount = %v", tb.Stats.RowCount)
	}
	cs := tb.Stats.ColStats(1)
	if cs == nil || cs.NDV != 10 {
		t.Errorf("grp NDV = %+v", cs)
	}
	if err := c.AnalyzeGroup(tb, []string{"id", "grp"}); err != nil {
		t.Fatal(err)
	}
	ndv, ok := tb.Stats.GroupNDV([]int{0, 1})
	if !ok || ndv != 100 {
		t.Errorf("group NDV = %v %v", ndv, ok)
	}
	if err := c.AnalyzeGroup(tb, []string{"nope"}); err == nil {
		t.Error("group on missing column should fail")
	}
	if err := c.AnalyzeGroup(tb, nil); err == nil {
		t.Error("an empty group should fail")
	}
	// A recorded group is recomputed by every later ANALYZE, from the rows
	// as they then are.
	c.AnalyzeGroup(tb, []string{"grp", "name"})
	loadRows(c, tb, 50)
	c.Analyze(tb, 8, true)
	if ndv, ok := tb.Stats.GroupNDV([]int{0, 1}); !ok || ndv != 100 {
		t.Errorf("after ANALYZE of 150 rows, 100 distinct: group NDV = %v %v", ndv, ok)
	}
	if ndv, ok := tb.Stats.GroupNDV([]int{2, 1}); !ok || ndv != 10 {
		t.Errorf("after ANALYZE: (grp, name) NDV = %v %v, want 10", ndv, ok)
	}
	if tb.Stats.RowCount != 150 || tb.Col() == nil || tb.Col().NumRows() != 150 {
		t.Errorf("Analyze must install statistics and the snapshot of the 150 rows: %v rows, snapshot %v", tb.Stats.RowCount, tb.Col())
	}
}

func TestIndexOnLeadingColumn(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	c.CreateIndex(nil, "t", "multi", []string{"grp", "id"}, false)
	if ix := tb.IndexOn(1); ix == nil || ix.Name != "multi" {
		t.Error("IndexOn should match leading column")
	}
	if tb.IndexOn(0) != nil {
		t.Error("IndexOn should not match non-leading column")
	}
	names := tb.Indexes[0].ColNames(tb)
	if names[0] != "grp" || names[1] != "id" {
		t.Errorf("ColNames wrong: %v", names)
	}
}

// TestIndexKeysViewHeapRows: an index over contiguous columns keeps each
// key as a view of its RID's current heap row — through CREATE INDEX,
// INSERT, an UPDATE that keeps the key, one that changes it, and DELETE —
// and an index over non-contiguous columns keeps copies.
func TestIndexKeysViewHeapRows(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", types.Schema{
		{Name: "a", Kind: types.KindInt},
		{Name: "b", Kind: types.KindInt},
		{Name: "c", Kind: types.KindInt},
		{Name: "d", Kind: types.KindString},
	})
	row := func(i int) types.Row {
		return types.Row{types.Int(int64(i)), types.Int(int64(i % 7)), types.Int(int64(i % 11)), types.Str("x")}
	}
	for i := 0; i < 500; i++ {
		c.Insert(nil, tb, row(i))
	}
	var ixs []*Index
	for _, cols := range [][]string{{"b"}, {"b", "c"}, {"a", "c"}} {
		ix, err := c.CreateIndex(nil, "t", strings.Join(cols, "_"), cols, false)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	check := func(step string) {
		t.Helper()
		for n, ix := range ixs {
			if err := ix.Tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: %s: %v", step, ix.Name, err)
			}
			if got, want := ix.Tree.Len(), int(tb.Heap.NumRows()); got != want {
				t.Fatalf("%s: %s holds %d entries for %d rows", step, ix.Name, got, want)
			}
			ix.Tree.Scan(nil, index.Bound{}, index.Bound{}, func(e index.Entry) bool {
				r, ok := tb.Heap.Get(nil, e.RID)
				if !ok {
					t.Fatalf("%s: %s names a deleted row %v", step, ix.Name, e.RID)
				}
				for k, col := range ix.Cols {
					if types.Compare(e.Key[k], r[col]) != 0 {
						t.Fatalf("%s: %s key %v for row %v", step, ix.Name, e.Key, r)
					}
				}
				if view := &e.Key[0] == &r[ix.Cols[0]]; view != (n < 2) {
					t.Fatalf("%s: %s: key is a view of its heap row: %v", step, ix.Name, view)
				}
				return true
			})
		}
	}
	check("CREATE INDEX")
	var rids []storage.RID
	for i := 500; i < 600; i++ {
		rids = append(rids, c.Insert(nil, tb, row(i)))
	}
	check("INSERT")
	for _, rid := range rids[:50] {
		r, _ := tb.Heap.Get(nil, rid)
		nr := r.Clone()
		nr[3] = types.Str("y")
		c.Update(nil, tb, rid, nr)
	}
	check("UPDATE keeping the key")
	for _, rid := range rids[25:75] {
		r, _ := tb.Heap.Get(nil, rid)
		nr := r.Clone()
		nr[1] = types.Int(r[1].I + 100)
		nr[2] = types.Int(r[2].I + 100)
		c.Update(nil, tb, rid, nr)
	}
	check("UPDATE changing the key")
	for _, rid := range rids[60:] {
		c.Delete(nil, tb, rid)
	}
	check("DELETE")
}
