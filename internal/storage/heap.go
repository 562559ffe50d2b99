package storage

import (
	"fmt"
	"slices"
	"sync"

	"rqp/internal/types"
)

// PageRows is the number of tuple slots per heap page. It is deliberately
// small so that even "lite"-scale tables span many pages and the page-level
// cost accounting is meaningful.
const PageRows = 64

// RID identifies a tuple: page number in the high bits, slot in the low 16.
type RID int64

// MakeRID composes a RID from page and slot.
func MakeRID(page, slot int) RID { return RID(int64(page)<<16 | int64(slot)) }

// Page returns the page number of the RID.
func (r RID) Page() int { return int(r >> 16) }

// Slot returns the slot number of the RID.
func (r RID) Slot() int { return int(r & 0xffff) }

type page struct {
	rows  []types.Row // nil entries are deleted slots
	live  int
	stamp uint64 // the heap version the last write to this page made
}

// Heap is a page-organized table. Scans charge sequential page reads on the
// clock; point fetches charge random reads. The heap is safe for concurrent
// readers with a single writer class via RWMutex (sufficient for the mixed
// workload experiments, which model logical not physical contention).
//
// Every Insert, Update and Delete advances the heap's version and stamps the
// page it wrote with it, so whatever was built from the heap at one version
// (a columnar snapshot) can ask which pages have moved since: Changed.
type Heap struct {
	mu      sync.RWMutex
	pages   []*page
	rows    int64
	sealed  bool   // next Insert opens a fresh page even if the tail has room
	version uint64 // writes so far
}

// stamp advances the version onto p. The caller holds the write lock.
func (h *Heap) stamp(p *page) {
	h.version++
	p.stamp = h.version
}

// NewHeap returns an empty heap.
func NewHeap() *Heap { return &Heap{} }

// Insert appends a row and returns its RID. The caller passes ownership of
// the row. Page writes are charged against clk (which may be nil for bulk
// loading outside measured regions).
func (h *Heap) Insert(clk *Clock, r types.Row) RID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pages) == 0 || len(h.pages[len(h.pages)-1].rows) >= PageRows || h.sealed {
		h.pages = append(h.pages, &page{rows: make([]types.Row, 0, PageRows)})
		h.sealed = false
		if clk != nil {
			clk.Write(1)
		}
	}
	p := h.pages[len(h.pages)-1]
	p.rows = append(p.rows, r)
	p.live++
	h.rows++
	h.stamp(p)
	return MakeRID(len(h.pages)-1, len(p.rows)-1)
}

// SealPage closes the current tail page: the next Insert starts a fresh
// page even if the tail has free slots. catalog.PartitionTable uses it to
// page-align partition boundaries so a page-range scan never straddles two
// shards.
func (h *Heap) SealPage() {
	h.mu.Lock()
	h.sealed = len(h.pages) > 0
	h.mu.Unlock()
}

// BulkLoad inserts many rows without charging the clock (data loading is
// considered setup, not measured query work).
func (h *Heap) BulkLoad(rows []types.Row) {
	for _, r := range rows {
		h.Insert(nil, r)
	}
}

// Get fetches the row at rid, charging one random page read.
func (h *Heap) Get(clk *Clock, rid RID) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if clk != nil {
		clk.RandRead(1)
	}
	pg, slot := rid.Page(), rid.Slot()
	if pg < 0 || pg >= len(h.pages) {
		return nil, false
	}
	p := h.pages[pg]
	if slot < 0 || slot >= len(p.rows) || p.rows[slot] == nil {
		return nil, false
	}
	return p.rows[slot], true
}

// Delete removes the row at rid. Returns false if absent.
func (h *Heap) Delete(clk *Clock, rid RID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, slot := rid.Page(), rid.Slot()
	if pg < 0 || pg >= len(h.pages) {
		return false
	}
	p := h.pages[pg]
	if slot < 0 || slot >= len(p.rows) || p.rows[slot] == nil {
		return false
	}
	p.rows[slot] = nil
	p.live--
	h.rows--
	h.stamp(p)
	if clk != nil {
		clk.Write(1)
	}
	return true
}

// Update replaces the row at rid in place.
func (h *Heap) Update(clk *Clock, rid RID, r types.Row) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	pg, slot := rid.Page(), rid.Slot()
	if pg < 0 || pg >= len(h.pages) {
		return false
	}
	p := h.pages[pg]
	if slot < 0 || slot >= len(p.rows) || p.rows[slot] == nil {
		return false
	}
	p.rows[slot] = r
	h.stamp(p)
	if clk != nil {
		clk.Write(1)
	}
	return true
}

// Scan iterates all live rows in physical order, charging one sequential
// page read per page touched. The callback returns false to stop early.
func (h *Heap) Scan(clk *Clock, fn func(rid RID, r types.Row) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for pi, p := range h.pages {
		if clk != nil {
			clk.SeqRead(1)
		}
		for si, r := range p.rows {
			if r == nil {
				continue
			}
			if !fn(MakeRID(pi, si), r) {
				return
			}
		}
	}
}

// HeapMark is where a heap stood when a snapshot was read from it: its
// version, and where each page's rows begin among the snapshot's —
// PageStart has one entry per page and one more, the row count, so page p
// held the positions [PageStart[p], PageStart[p+1]).
type HeapMark struct {
	Version   uint64
	PageStart []int32
}

// ScanMarked visits every live row in physical order, charging nothing, and
// returns the heap's mark: both under one read lock, so they agree.
func (h *Heap) ScanMarked(fn func(r types.Row)) HeapMark {
	h.mu.RLock()
	defer h.mu.RUnlock()
	m := HeapMark{Version: h.version, PageStart: make([]int32, len(h.pages)+1)}
	var pos int32
	for pi, p := range h.pages {
		m.PageStart[pi] = pos
		for _, r := range p.rows {
			if r != nil {
				fn(r)
				pos++
			}
		}
	}
	m.PageStart[len(h.pages)] = pos
	return m
}

// Changed reports what was written after the mark: the pages it covers
// that a later write stamped, appended to dst in ascending order, and the
// heap's page count now (the pages past the mark's are all new). dst grows
// at most once, to fit. One read lock; when nothing was written since the
// mark it looks at no page and returns dst as it came.
func (h *Heap) Changed(m HeapMark, dst []int32) ([]int32, int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.version == m.Version {
		return dst, len(h.pages)
	}
	pages := h.pages[:min(len(h.pages), len(m.PageStart)-1)]
	n := 0
	for _, p := range pages {
		if p.stamp > m.Version {
			n++
		}
	}
	dst = slices.Grow(dst, n)
	for i, p := range pages {
		if p.stamp > m.Version {
			dst = append(dst, int32(i))
		}
	}
	return dst, len(h.pages)
}

// ScanPage visits the live rows of one page in slot order, charging one
// sequential page read. It reports whether the page exists. Shared
// (circular) scans are built on this: many consumers ride one page read.
func (h *Heap) ScanPage(clk *Clock, pageNo int, fn func(rid RID, r types.Row) bool) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if pageNo < 0 || pageNo >= len(h.pages) {
		return false
	}
	if clk != nil {
		clk.SeqRead(1)
	}
	p := h.pages[pageNo]
	for si, r := range p.rows {
		if r == nil {
			continue
		}
		if !fn(MakeRID(pageNo, si), r) {
			break
		}
	}
	return true
}

// NumRows returns the live row count.
func (h *Heap) NumRows() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// NumPages returns the allocated page count.
func (h *Heap) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// String describes the heap.
func (h *Heap) String() string {
	return fmt.Sprintf("heap{rows=%d pages=%d}", h.NumRows(), h.NumPages())
}
