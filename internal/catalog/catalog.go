// Package catalog maintains the database schema: tables, columns, indexes
// and their statistics. It ties the storage, index and stats substrates
// together for the optimizer and executor.
package catalog

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rqp/internal/index"
	"rqp/internal/stats"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// Index describes one secondary index over a table.
type Index struct {
	Name    string
	Cols    []int // column positions, leading first
	Unique  bool
	Tree    *index.BTree
	Dropped bool
}

// Table is one base relation.
type Table struct {
	Name    string
	Schema  types.Schema
	Heap    *storage.Heap
	Indexes []*Index
	Stats   *stats.TableStats
	// modCount counts row modifications since the last ANALYZE; automatic
	// statistics maintenance triggers on it.
	modCount int64
	// col is the table's column-major snapshot (see storage.ColumnStore),
	// nil when the table has not been loaded columnar. DML leaves it
	// standing: the snapshot remembers the heap it was read from
	// (storage.HeapMark), and a scan reads the pages written since from the
	// heap — the heap is the delta. BuildColumnar and ANALYZE rebuild it
	// whole; executors scan the heap only while it is absent.
	col atomic.Pointer[storage.ColumnStore]
	// part is the table's physical hash partitioning (see PartitionTable),
	// nil when unpartitioned. Row modifications drop it: inserts append to
	// the heap's tail page, which would break the shard-major page layout
	// the co-located join path relies on.
	part atomic.Pointer[Partitioning]
	// writing is held by each write from its unique-key check through its
	// last heap and index write, so two sessions cannot both pass the check
	// with one key, and by CREATE INDEX from its scan through registering
	// the tree, so no write misses it. Readers do not take it.
	writing sync.Mutex
}

// ModCount returns modifications since the last ANALYZE.
func (t *Table) ModCount() int64 { return atomic.LoadInt64(&t.modCount) }

// bumpMods counts one row modification and drops the shard-major layout.
// The columnar snapshot stays: the heap stamps the page it writes.
func (t *Table) bumpMods() {
	atomic.AddInt64(&t.modCount, 1)
	t.part.Store(nil)
}

// Col returns the table's columnar snapshot, or nil when none is current.
func (t *Table) Col() *storage.ColumnStore { return t.col.Load() }

// ColIndex resolves a column by name within the table.
func (t *Table) ColIndex(name string) int {
	return t.Schema.ColIndex("", name)
}

// IndexOn returns the first live index whose leading column is col.
func (t *Table) IndexOn(col int) *Index {
	for _, ix := range t.Indexes {
		if !ix.Dropped && len(ix.Cols) > 0 && ix.Cols[0] == col {
			return ix
		}
	}
	return nil
}

// IndexNamed returns the index with the given name, or nil.
func (t *Table) IndexNamed(name string) *Index {
	for _, ix := range t.Indexes {
		if strings.EqualFold(ix.Name, name) && !ix.Dropped {
			return ix
		}
	}
	return nil
}

// Catalog is the schema registry.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// CreateTable registers a new table with the given schema.
func (c *Catalog) CreateTable(name string, schema types.Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	qualified := schema.WithTable(name)
	t := &Table{
		Name:   name,
		Schema: qualified,
		Heap:   storage.NewHeap(),
		Stats:  stats.NewTableStats(len(schema)),
	}
	c.tables[key] = t
	return t, nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all tables sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateIndex builds a B+ tree over the named columns of the table and
// registers it. The build reads every row (charged to clk if non-nil). A
// unique index over keys that repeat is an error, and nothing is built.
func (c *Catalog) CreateIndex(clk *storage.Clock, tableName, indexName string, colNames []string, unique bool) (*Index, error) {
	t, ok := c.Table(tableName)
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", tableName)
	}
	if t.IndexNamed(indexName) != nil {
		return nil, fmt.Errorf("catalog: index %q already exists on %q", indexName, tableName)
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		ci := t.ColIndex(cn)
		if ci < 0 {
			return nil, fmt.Errorf("catalog: column %q not in table %q", cn, tableName)
		}
		cols[i] = ci
	}
	t.writing.Lock() // no write lands between the scan and the registration
	defer t.writing.Unlock()
	n := int(t.Heap.NumRows())
	vals := make([]types.Value, 0, n*len(cols))
	rids := make([]storage.RID, 0, n)
	t.Heap.ScanCols(clk, cols, func(rid storage.RID, key types.Row) bool {
		vals = append(vals, key...)
		rids = append(rids, rid)
		return true
	})
	tree := index.Build(len(cols), vals, rids)
	if unique {
		if dup := tree.Repeated(); dup != nil {
			return nil, fmt.Errorf("catalog: cannot create unique index %q: key %s repeats", indexName, types.Row(dup).String())
		}
	}
	ix := &Index{Name: indexName, Cols: cols, Unique: unique, Tree: tree}
	c.mu.Lock()
	t.Indexes = append(t.Indexes, ix)
	c.mu.Unlock()
	return ix, nil
}

func hasNull(key []types.Value) bool {
	for _, v := range key {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// DropIndex marks an index dropped.
func (c *Catalog) DropIndex(tableName, indexName string) error {
	t, ok := c.Table(tableName)
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", tableName)
	}
	ix := t.IndexNamed(indexName)
	if ix == nil {
		return fmt.Errorf("catalog: index %q does not exist on %q", indexName, tableName)
	}
	ix.Dropped = true
	return nil
}

// keyOf appends r's key under cols to dst.
func keyOf(dst []types.Value, r types.Row, cols []int) []types.Value {
	for _, c := range cols {
		dst = append(dst, r[c])
	}
	return dst
}

// keyBuf is room on the stack for a key of up to four columns; a wider one
// grows out of it.
type keyBuf [4]types.Value

// checkUnique returns an error when writing the rows back to back in vals,
// each as wide as t's schema, would repeat the key of a unique index of t:
// a key the index holds at a row other than rids — the rows vals replace,
// nil for an insert — or one two of the rows share. A key with a NULL in it
// repeats nothing. One row takes no more than a probe of each unique index.
func checkUnique(t *Table, vals []types.Value, rids []storage.RID) error {
	var held []storage.RID   // rids, sorted
	var keys [][]types.Value // with more than one row, theirs
	var slab []types.Value   // and their values
	for _, ix := range t.Indexes {
		if ix.Dropped || !ix.Unique {
			continue
		}
		w := len(t.Schema)
		n := len(vals) / w
		if held == nil && len(rids) > 0 {
			if held = rids; !slices.IsSorted(rids) {
				held = slices.Clone(rids)
				slices.Sort(held)
			}
		}
		if keys, slab = keys[:0], slab[:0]; n > 1 && cap(slab) < n*len(ix.Cols) {
			slab = make([]types.Value, 0, n*len(ix.Cols))
		}
		for i := range n {
			var kb keyBuf
			key := keyOf(kb[:0], vals[i*w:(i+1)*w], ix.Cols)
			if hasNull(key) {
				continue
			}
			if rid, ok := ix.Tree.Find(key); ok {
				if _, replaced := slices.BinarySearch(held, rid); !replaced {
					return duplicate(ix, key)
				}
			}
			if n > 1 {
				slab = append(slab, key...)
				keys = append(keys, slab[len(slab)-len(key):])
			}
		}
		slices.SortFunc(keys, compareKeys)
		for i := 1; i < len(keys); i++ {
			if compareKeys(keys[i-1], keys[i]) == 0 {
				return duplicate(ix, keys[i])
			}
		}
	}
	return nil
}

func duplicate(ix *Index, key []types.Value) error {
	return fmt.Errorf("catalog: duplicate key %s in unique index %q", types.Row(key).String(), ix.Name)
}

// compareKeys orders two keys of one index as the tree does.
func compareKeys(a, b []types.Value) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// sameKeys reports whether two keys of one index pack alike: the same kinds
// and bits.
func sameKeys(a, b []types.Value) bool {
	for i, x := range a {
		y := b[i]
		if x.K != y.K || x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S {
			return false
		}
	}
	return true
}

// Insert adds a copy of r to the table, maintaining all indexes. A row that
// would repeat the key of a unique index is an error, and nothing is
// written.
func (c *Catalog) Insert(clk *storage.Clock, t *Table, r types.Row) (storage.RID, error) {
	t.writing.Lock()
	defer t.writing.Unlock()
	if err := checkUnique(t, r, nil); err != nil {
		return 0, err
	}
	return insert(clk, t, r), nil
}

// InsertRows adds copies of the rows back to back in vals, each as wide as
// t's schema, as one statement. When one of them would repeat the key of a
// unique index — a key the index holds, or one two of them share — it is an
// error, and nothing is written.
func (c *Catalog) InsertRows(clk *storage.Clock, t *Table, vals []types.Value) error {
	t.writing.Lock()
	defer t.writing.Unlock()
	if err := checkUnique(t, vals, nil); err != nil {
		return err
	}
	for w := len(t.Schema); len(vals) > 0; vals = vals[w:] {
		insert(clk, t, vals[:w])
	}
	return nil
}

func insert(clk *storage.Clock, t *Table, r types.Row) storage.RID {
	t.bumpMods()
	rid := t.Heap.Insert(clk, r)
	for _, ix := range t.Indexes {
		if ix.Dropped {
			continue
		}
		var kb keyBuf
		ix.Tree.Insert(keyOf(kb[:0], r, ix.Cols), rid)
	}
	return rid
}

// rowBuf is room for a decoded row on the stack; a wider row grows out of
// it.
type rowBuf [16]types.Value

// Delete removes a row by RID, maintaining indexes.
func (c *Catalog) Delete(clk *storage.Clock, t *Table, rid storage.RID) bool {
	t.writing.Lock()
	defer t.writing.Unlock()
	var rb rowBuf
	r, ok := t.Heap.Get(nil, rid, rb[:0])
	if !ok {
		return false
	}
	if !t.Heap.Delete(clk, rid) {
		return false
	}
	t.bumpMods()
	for _, ix := range t.Indexes {
		if ix.Dropped {
			continue
		}
		var kb keyBuf
		ix.Tree.Delete(keyOf(kb[:0], r, ix.Cols), rid)
	}
	return true
}

// UpdateRows replaces the row at each of rids with a copy of the row at the
// same position among those back to back in vals, as one statement; a rid
// that holds no row is passed over. When the new rows would repeat the key
// of a unique index — a key the index holds at a row outside rids, or one
// two of them share — it is an error, and nothing is written: so `SET k = k
// + 1` over keys 1 and 2 is no repeat, though its first row takes a key the
// second still holds.
func (c *Catalog) UpdateRows(clk *storage.Clock, t *Table, rids []storage.RID, vals []types.Value) error {
	t.writing.Lock()
	defer t.writing.Unlock()
	if err := checkUnique(t, vals, rids); err != nil {
		return err
	}
	w := len(t.Schema)
	for i, rid := range rids {
		update(clk, t, rid, vals[i*w:(i+1)*w])
	}
	return nil
}

// update replaces the row at rid, if it holds one, with a copy of newRow,
// maintaining indexes: an entry whose key changed is deleted and inserted
// again.
func update(clk *storage.Clock, t *Table, rid storage.RID, newRow types.Row) {
	var rb rowBuf
	old, ok := t.Heap.Get(nil, rid, rb[:0])
	if !ok || !t.Heap.Update(clk, rid, newRow) {
		return
	}
	t.bumpMods()
	for _, ix := range t.Indexes {
		if ix.Dropped {
			continue
		}
		var kb, ob keyBuf
		key, was := keyOf(kb[:0], newRow, ix.Cols), keyOf(ob[:0], old, ix.Cols)
		if !sameKeys(key, was) {
			ix.Tree.Delete(was, rid)
			ix.Tree.Insert(key, rid)
		}
	}
}

// scanColumns reads the table into one exactly-sized vector per column: the
// one heap scan statistics and the columnar snapshot are both built from,
// and the mark of the heap it read.
func scanColumns(t *Table) ([]types.Vector, storage.HeapMark) {
	vecs := types.NewVectors(t.Schema, int(t.Heap.NumRows()))
	mark := t.Heap.ScanMarked(vecs)
	return vecs, mark
}

// BuildColumnar (re)builds the table's column-major snapshot by scanning the
// heap, with blockSize values per column block (storage.DefaultColBlock when
// <= 0). The snapshot is immutable; scans read the pages DML writes after it
// from the heap until it is rebuilt.
func (c *Catalog) BuildColumnar(t *Table, blockSize int) *storage.ColumnStore {
	vecs, mark := scanColumns(t)
	cs := storage.BuildColumnStore(vecs, blockSize, mark)
	t.col.Store(cs)
	return cs
}

// AnalyzeTable recomputes statistics for a table by scanning it.
func (c *Catalog) AnalyzeTable(t *Table, buckets int) { c.Analyze(t, buckets, false) }

// Analyze is AnalyzeTable and, when columnar is set, BuildColumnar at the
// default block size, from one scan of the heap.
func (c *Catalog) Analyze(t *Table, buckets int, columnar bool) {
	vecs, mark := scanColumns(t)
	ts := stats.Analyze(vecs, t.Schema, buckets, t.Stats)
	c.mu.Lock()
	t.Stats = ts
	c.mu.Unlock()
	atomic.StoreInt64(&t.modCount, 0)
	if columnar {
		t.col.Store(storage.BuildColumnStore(vecs, storage.DefaultColBlock, mark))
	}
}

// AnalyzeGroup computes joint-NDV correlation statistics for a column group
// and records the group, so that every later ANALYZE of the table recomputes
// them.
func (c *Catalog) AnalyzeGroup(t *Table, colNames []string) error {
	if len(colNames) == 0 {
		return fmt.Errorf("catalog: empty column group on table %q", t.Name)
	}
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		ci := t.ColIndex(cn)
		if ci < 0 {
			return fmt.Errorf("catalog: column %q not in table %q", cn, t.Name)
		}
		cols[i] = ci
	}
	vecs, _ := scanColumns(t)
	t.Stats.AnalyzeGroup(cols, vecs)
	return nil
}
