package catalog

import (
	"strings"
	"sync"
	"sync/atomic"
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
	ix.Tree.Lookup(nil, []types.Value{types.Int(3)}, func(storage.RID) bool { n++; return true })
	if n != 6 { // 5 original (3,13,23,33,43) + 1 new
		t.Errorf("lookup grp=3 found %d, want 6", n)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	var rids []storage.RID
	for i := 0; i < 20; i++ {
		rid, _ := c.Insert(nil, tb, types.Row{types.Int(int64(i)), types.Int(int64(i % 2)), types.Str("x")})
		rids = append(rids, rid)
	}
	ix, _ := c.CreateIndex(nil, "t", "t_id", []string{"id"}, true)
	if !c.Delete(nil, tb, rids[5]) {
		t.Fatal("delete failed")
	}
	if c.Delete(nil, tb, rids[5]) {
		t.Error("double delete should fail")
	}
	n := 0
	ix.Tree.Lookup(nil, []types.Value{types.Int(5)}, func(storage.RID) bool { n++; return true })
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

// TestIndexKeysAreCopies: an index keeps its own packed copy of every key,
// one entry for each live row, each key equal to its row's columns, through
// CREATE INDEX, INSERT, an UPDATE that keeps the key, one that changes it,
// and DELETE — and scribbling over a row after passing it to Insert or Update
// changes no key (nor the heap's row).
func TestIndexKeysAreCopies(t *testing.T) {
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
	scribble := func(r types.Row) {
		for i := range r {
			r[i] = types.Str("scribbled")
		}
	}
	for i := 0; i < 500; i++ {
		r := row(i)
		c.Insert(nil, tb, r)
		scribble(r)
	}
	var ixs []*Index
	for _, cols := range [][]string{{"b"}, {"b", "c"}, {"a", "c"}, {"d", "a"}} {
		ix, err := c.CreateIndex(nil, "t", strings.Join(cols, "_"), cols, false)
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	check := func(step string) {
		t.Helper()
		for _, ix := range ixs {
			if err := ix.Tree.CheckInvariants(); err != nil {
				t.Fatalf("%s: %s: %v", step, ix.Name, err)
			}
			if got, want := ix.Tree.Len(), int(tb.Heap.NumRows()); got != want {
				t.Fatalf("%s: %s holds %d entries for %d rows", step, ix.Name, got, want)
			}
			seen := map[storage.RID]bool{} // no key here is NULL, so a scan visits every entry
			ix.Tree.Scan(nil, index.Bound{}, index.Bound{}, func(rid storage.RID) bool {
				if _, ok := tb.Heap.Get(nil, rid, nil); !ok || seen[rid] {
					t.Fatalf("%s: %s names row %v again or deleted (%v)", step, ix.Name, rid, ok)
				}
				seen[rid] = true
				return true
			})
			if len(seen) != ix.Tree.Len() {
				t.Fatalf("%s: %s scans %d of %d entries", step, ix.Name, len(seen), ix.Tree.Len())
			}
			tb.Heap.Scan(nil, func(rid storage.RID, r types.Row) bool {
				found := false
				ix.Tree.Lookup(nil, keyOf(nil, r, ix.Cols), func(at storage.RID) bool {
					found = at == rid
					return !found
				})
				if !found || r[0].K != types.KindInt {
					t.Fatalf("%s: %s holds no key %v for row %v", step, ix.Name, keyOf(nil, r, ix.Cols), r)
				}
				return true
			})
		}
	}
	check("CREATE INDEX")
	var rids []storage.RID
	for i := 500; i < 600; i++ {
		r := row(i)
		rid, err := c.Insert(nil, tb, r)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
		scribble(r)
	}
	check("INSERT")
	update := func(rid storage.RID, edit func(nr types.Row)) {
		nr, _ := tb.Heap.Get(nil, rid, nil)
		edit(nr)
		if ok, err := c.Update(nil, tb, rid, nr); !ok || err != nil {
			t.Fatalf("update %v: %v %v", rid, ok, err)
		}
		scribble(nr)
	}
	for _, rid := range rids[:50] {
		update(rid, func(nr types.Row) { nr[3] = types.Str("y") })
	}
	check("UPDATE keeping the key")
	for _, rid := range rids[25:75] {
		update(rid, func(nr types.Row) {
			nr[1] = types.Int(nr[1].I + 100)
			nr[2] = types.Int(nr[2].I + 100)
		})
	}
	check("UPDATE changing the key")
	for _, rid := range rids[60:] {
		c.Delete(nil, tb, rid)
	}
	check("DELETE")
}

// TestUniqueIndexEnforced: a unique index refuses to be built over keys that
// repeat, and refuses an INSERT, or an UPDATE of a key column, that would
// repeat a key — before the heap is written. NULL keys may repeat, and an
// UPDATE that keeps a row's key is no repeat.
func TestUniqueIndexEnforced(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	for i := 0; i < 3; i++ {
		c.Insert(nil, tb, types.Row{types.Int(7), types.Int(int64(i)), types.Str("x")})
	}
	if _, err := c.CreateIndex(nil, "t", "t_id", []string{"id"}, true); err == nil {
		t.Fatal("a unique index over a repeated key was built")
	}
	if len(tb.Indexes) != 0 {
		t.Fatalf("a refused index is registered: %v", tb.Indexes)
	}
	ix, err := c.CreateIndex(nil, "t", "t_grp", []string{"grp"}, true)
	if err != nil {
		t.Fatal(err)
	}
	pages := tb.Heap.NumPages()
	if _, err := c.Insert(nil, tb, types.Row{types.Int(8), types.Int(1), types.Str("y")}); err == nil {
		t.Error("INSERT of a repeated key succeeded")
	}
	if tb.Heap.NumRows() != 3 || ix.Tree.Len() != 3 || tb.Heap.NumPages() != pages {
		t.Errorf("a refused INSERT wrote: %d rows, %d entries", tb.Heap.NumRows(), ix.Tree.Len())
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Insert(nil, tb, types.Row{types.Int(9), types.Null(), types.Str("n")}); err != nil {
			t.Errorf("NULL key %d refused: %v", i, err)
		}
	}
	var rids []storage.RID
	tb.Heap.Scan(nil, func(rid storage.RID, _ types.Row) bool { rids = append(rids, rid); return true })
	if ok, err := c.Update(nil, tb, rids[0], types.Row{types.Int(7), types.Int(2), types.Str("x")}); ok || err == nil {
		t.Error("UPDATE to a repeated key succeeded")
	}
	if r, _ := tb.Heap.Get(nil, rids[0], nil); r[1].I != 0 {
		t.Errorf("a refused UPDATE wrote %v", r)
	}
	for _, nr := range []types.Row{
		{types.Int(70), types.Int(0), types.Str("kept")},   // the row's own key
		{types.Int(70), types.Float(0), types.Str("kept")}, // equal, of another kind
		{types.Int(70), types.Int(5), types.Str("moved")},
	} {
		if ok, err := c.Update(nil, tb, rids[0], nr); !ok || err != nil {
			t.Errorf("UPDATE to %v: %v %v", nr, ok, err)
		}
	}
	n := 0
	ix.Tree.Lookup(nil, []types.Value{types.Int(5)}, func(storage.RID) bool { n++; return true })
	if n != 1 || ix.Tree.CheckInvariants() != nil {
		t.Errorf("key 5 found %d times after the UPDATE", n)
	}
}

// TestUniqueKeyAcrossSessions: two sessions released together insert one
// fresh key into a unique index, 2 000 times over. Each write holds its
// table's write lock from the key check through its last write, so exactly
// one of the two succeeds and the index holds the key once. With the check
// and the write as two steps, both inserts succeeded in 44 to 139 of the
// 2 000 rounds over three runs on 2 vCPUs.
func TestUniqueKeyAcrossSessions(t *testing.T) {
	c := New()
	tb, _ := c.CreateTable("t", testSchema())
	ix, err := c.CreateIndex(nil, "t", "t_id", []string{"id"}, true)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	for round := 0; round < rounds; round++ {
		row := []types.Value{types.Int(int64(round)), types.Int(0), types.Str("x")}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var won atomic.Int32
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if c.InsertRows(nil, tb, row) == nil {
					won.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		n := 0
		ix.Tree.Lookup(nil, row[:1], func(storage.RID) bool { n++; return true })
		if won.Load() != 1 || n != 1 {
			t.Fatalf("round %d: %d inserts of key %v succeeded, the index holds it %d times", round, won.Load(), row[0], n)
		}
	}
	if tb.Heap.NumRows() != rounds || ix.Tree.Len() != rounds {
		t.Fatalf("%d rows and %d index entries for %d keys", tb.Heap.NumRows(), ix.Tree.Len(), rounds)
	}
}
