package storage

import (
	"sync/atomic"

	"rqp/internal/types"
)

// TempRun is an append-only spill run: rows written out of an operator's
// workspace when the memory broker cannot cover it. Like the heap, a run is
// organized in PageRows-sized pages and charges the cost clock at page
// granularity — one page write as each page starts filling, one sequential
// read per page when the run is read back. Spilling operators (hash join,
// hash aggregation, external sort) therefore pay exactly the I/O a real
// partition file would, and the deterministic clock keeps the degradation
// curve reproducible.
//
// The caller passes ownership of appended rows: a spilled row must not alias
// a buffer the producer will overwrite (clone volatile rows before Append).
type TempRun struct {
	rows  []types.Row
	pages int
}

// openTempPages counts the pages of every run written and neither read back
// nor discarded yet.
var openTempPages atomic.Int64

// OpenTempPages reports how many temp-run pages are outstanding across all
// queries: zero whenever nothing is executing, whatever way the last query
// ended — the fault tests' check that an aborted operator discarded its runs.
func OpenTempPages() int64 { return openTempPages.Load() }

// NewTempRun returns an empty run.
func NewTempRun() *TempRun { return &TempRun{} }

// Append writes one row to the run, charging one page write on clk each
// time a new page starts (mirroring Heap.Insert). clk may be nil for
// unmeasured staging.
func (t *TempRun) Append(clk *Clock, r types.Row) {
	if len(t.rows)%PageRows == 0 {
		t.pages++
		openTempPages.Add(1)
		if clk != nil {
			clk.Write(1)
		}
	}
	t.rows = append(t.rows, r)
}

// Len returns the number of rows in the run.
func (t *TempRun) Len() int { return len(t.rows) }

// Pages returns the number of pages the run occupies.
func (t *TempRun) Pages() int { return t.pages }

// Drain charges one sequential read per page on clk, returns every row in
// append order, and leaves the run empty.
func (t *TempRun) Drain(clk *Clock) []types.Row {
	if clk != nil && t.pages > 0 {
		clk.SeqRead(t.pages)
	}
	rows := t.rows
	t.Discard()
	return rows
}

// Discard drops the run without charging a read — for runs the consumer can
// prove it never needs (e.g. a spilled build partition whose probe side
// turned out empty).
func (t *TempRun) Discard() {
	openTempPages.Add(-int64(t.pages))
	t.rows, t.pages = nil, 0
}
