package catalog

import (
	"fmt"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// Partitioning records a table's physical hash partitioning for sharded
// execution. Rows live in the heap shard-major: all of shard 0's pages,
// then shard 1's, and so on, with page-aligned boundaries so a page-range
// scan of one shard never reads another shard's rows.
type Partitioning struct {
	Col    int // partitioning column
	Shards int // partition (shard) count
	// PageStart[i] is the first heap page of shard i; PageStart[Shards]
	// is one past the last page. Shard i therefore owns the half-open
	// page range [PageStart[i], PageStart[i+1]).
	PageStart []int
}

// ShardOf returns the shard that owns a value under this partitioning —
// the same hash the executor's shuffle router uses, so a co-located join
// can trust that matching keys land on matching shards.
func (p *Partitioning) ShardOf(v types.Value) int {
	return int(types.HashRow([]types.Value{v}) % uint64(p.Shards))
}

// Part returns the table's physical partitioning, or nil when the table is
// unpartitioned (or a row modification has invalidated the layout).
func (t *Table) Part() *Partitioning { return t.part.Load() }

// PartitionTable rebuilds t's heap hash-partitioned by the named column
// across shards. Rows are bucketed with the exact hash the shuffle router
// uses (types.HashRow over the single partitioning value) and laid out
// shard-major with page-aligned boundaries (the trailing partial page of
// every shard is sealed). The rebuild changes every RID, so tables with
// live secondary indexes are refused — drop them first. The columnar
// snapshot, read from the old heap, is dropped. Subsequent DML invalidates
// the partitioning the same way it invalidates statistics: executors fall
// back to the shuffle path until the table is re-partitioned.
func (c *Catalog) PartitionTable(t *Table, colName string, shards int) error {
	if shards < 2 {
		return fmt.Errorf("catalog: partitioning %q needs at least 2 shards, got %d", t.Name, shards)
	}
	col := t.ColIndex(colName)
	if col < 0 {
		return fmt.Errorf("catalog: column %q not in table %q", colName, t.Name)
	}
	for _, ix := range t.Indexes {
		if !ix.Dropped {
			return fmt.Errorf("catalog: cannot partition %q: live index %q (RIDs change; drop indexes first)", t.Name, ix.Name)
		}
	}
	buckets := make([][]types.Row, shards)
	t.Heap.Scan(nil, func(_ storage.RID, r types.Row) bool {
		s := int(types.HashRow([]types.Value{r[col]}) % uint64(shards))
		buckets[s] = append(buckets[s], r)
		return true
	})
	heap := storage.NewHeap()
	pageStart := make([]int, shards+1)
	for s, rows := range buckets {
		pageStart[s] = heap.NumPages()
		for _, r := range rows {
			heap.Insert(nil, r)
		}
		heap.SealPage()
	}
	pageStart[shards] = heap.NumPages()
	t.col.Store(nil) // its mark is of the old heap: no scan may pair the two
	c.mu.Lock()
	t.Heap = heap
	c.mu.Unlock()
	t.part.Store(&Partitioning{Col: col, Shards: shards, PageStart: pageStart})
	return nil
}
