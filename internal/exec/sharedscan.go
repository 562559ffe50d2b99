package exec

import (
	"rqp/internal/catalog"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// SharedScan is the coordinated (circular) table scan from the report's
// robust-execution catalogue: one physical scan cursor sweeps the table
// page by page and every attached consumer rides it, so N concurrent scans
// cost one pass of page reads instead of N. Consumers may attach while the
// sweep is mid-table; they receive the remaining pages first and the skipped
// prefix on the wrap-around — each consumer sees every live row exactly
// once.
type SharedScan struct {
	table *catalog.Table
	clk   *storage.Clock
	pos   int // next page the sweep will read
	pages int
	curs  []*SharedCursor
	page  types.Row // the page's live rows, decoded back to back (Heap.ScanPage)
}

// SharedCursor is one consumer's attachment.
type SharedCursor struct {
	fn        func(types.Row) bool
	startPage int
	remaining int // pages left to see
	done      bool
	stopped   bool // consumer returned false
}

// NewSharedScan creates a sweep over the table charging I/O to clk.
func NewSharedScan(clk *storage.Clock, table *catalog.Table) *SharedScan {
	return &SharedScan{table: table, clk: clk, pages: table.Heap.NumPages()}
}

// Attach registers a consumer starting at the sweep's current position.
// fn returns false to stop consuming early. Each row is lent: valid until
// the sweep's next Step.
func (s *SharedScan) Attach(fn func(types.Row) bool) *SharedCursor {
	c := &SharedCursor{fn: fn, startPage: s.pos, remaining: s.pages}
	if s.pages == 0 {
		c.done = true
	}
	s.curs = append(s.curs, c)
	return c
}

// Step advances the sweep one page, delivering its rows to every active
// cursor (one shared page read). It returns false when no cursor is active.
func (s *SharedScan) Step() bool {
	active := 0
	for _, c := range s.curs {
		if !c.done {
			active++
		}
	}
	if active == 0 || s.pages == 0 {
		return false
	}
	s.table.Heap.ScanPage(s.clk, s.pos%s.pages, nil, &s.page, func(storage.RID, types.Row) bool { return true })
	w := len(s.table.Schema)
	for _, c := range s.curs {
		if c.done || c.remaining <= 0 {
			continue
		}
		if !c.stopped {
			for off := 0; off < len(s.page); off += w {
				r := s.page[off : off+w : off+w]
				if s.clk != nil {
					s.clk.RowWork(1)
				}
				if !c.fn(r) {
					c.stopped = true
					c.done = true
					break
				}
			}
		}
		c.remaining--
		if c.remaining == 0 {
			c.done = true
		}
	}
	s.pos = (s.pos + 1) % s.pages
	return true
}

// Run drives the sweep until every attached cursor completes.
func (s *SharedScan) Run() {
	for s.Step() {
	}
}
