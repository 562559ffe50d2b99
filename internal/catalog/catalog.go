// Package catalog maintains the database schema: tables, columns, indexes
// and their statistics. It ties the storage, index and stats substrates
// together for the optimizer and executor.
package catalog

import (
	"fmt"
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

// ColNames returns the index column names given the owning table.
func (ix *Index) ColNames(t *Table) []string {
	out := make([]string, len(ix.Cols))
	for i, c := range ix.Cols {
		out[i] = t.Schema[c].Name
	}
	return out
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
// registers it. The build reads every row (charged to clk if non-nil).
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
	ix := &Index{Name: indexName, Cols: cols, Unique: unique, Tree: index.New(len(cols))}
	// Every key is a slice of one arena, and the tree takes them all, in
	// heap order, under one hold of its lock.
	n := int(t.Heap.NumRows())
	keys := make([]types.Value, 0, n*len(cols))
	rids := make([]storage.RID, 0, n)
	t.Heap.Scan(clk, func(rid storage.RID, r types.Row) bool {
		for _, c := range cols {
			keys = append(keys, r[c])
		}
		rids = append(rids, rid)
		return true
	})
	ix.Tree.InsertBatch(keys, rids)
	c.mu.Lock()
	t.Indexes = append(t.Indexes, ix)
	c.mu.Unlock()
	return ix, nil
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

func extractKey(r types.Row, cols []int) []types.Value {
	key := make([]types.Value, len(cols))
	for i, c := range cols {
		key[i] = r[c]
	}
	return key
}

// Insert adds a row to the table, maintaining all indexes.
func (c *Catalog) Insert(clk *storage.Clock, t *Table, r types.Row) storage.RID {
	t.bumpMods()
	rid := t.Heap.Insert(clk, r)
	for _, ix := range t.Indexes {
		if ix.Dropped {
			continue
		}
		ix.Tree.Insert(extractKey(r, ix.Cols), rid)
	}
	return rid
}

// Delete removes a row by RID, maintaining indexes.
func (c *Catalog) Delete(clk *storage.Clock, t *Table, rid storage.RID) bool {
	r, ok := t.Heap.Get(nil, rid)
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
		ix.Tree.Delete(extractKey(r, ix.Cols), rid)
	}
	return true
}

// Update replaces the row at rid, maintaining indexes whose key columns
// changed.
func (c *Catalog) Update(clk *storage.Clock, t *Table, rid storage.RID, newRow types.Row) bool {
	old, ok := t.Heap.Get(nil, rid)
	if !ok {
		return false
	}
	if !t.Heap.Update(clk, rid, newRow) {
		return false
	}
	t.bumpMods()
	for _, ix := range t.Indexes {
		if ix.Dropped {
			continue
		}
		oldKey := extractKey(old, ix.Cols)
		newKey := extractKey(newRow, ix.Cols)
		same := true
		for i := range oldKey {
			if types.Compare(oldKey[i], newKey[i]) != 0 {
				same = false
				break
			}
		}
		if same {
			continue
		}
		ix.Tree.Delete(oldKey, rid)
		ix.Tree.Insert(newKey, rid)
	}
	return true
}

// scanColumns reads the table into one exactly-sized vector per column: the
// one heap scan statistics and the columnar snapshot are both built from,
// and the mark of the heap it read.
func scanColumns(t *Table) ([]types.Vector, storage.HeapMark) {
	vecs := types.NewVectors(t.Schema, int(t.Heap.NumRows()))
	mark := t.Heap.ScanMarked(func(r types.Row) { types.AppendRow(vecs, r) })
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
