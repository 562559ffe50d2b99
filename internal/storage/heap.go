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

// page keeps its slots packed (types.Pack): slot s's values are
// vals[s*w*PackedSize:(s+1)*w*PackedSize] for the heap's width w, and a
// string value's word is its index in strs. An entry no value names any
// more is blanked and listed in free for the next string to take, so strs
// holds no more entries than the most strings the page's slots have held at
// once.
// A read decodes a slot into a row the reader owns; no Value is kept.
type page struct {
	vals  []byte
	strs  []string
	free  []int32
	dead  uint64 // bit s: slot s was deleted (a page has PageRows = 64 slots)
	slots int    // slots used, live or dead
	live  int
	stamp uint64 // the heap version the last write to this page made
}

// Heap is a page-organized table. Scans charge sequential page reads on the
// clock; point fetches charge random reads. The heap is safe for concurrent
// readers with a single writer class via RWMutex (sufficient for the mixed
// workload experiments, which model logical not physical contention).
//
// Rows are kept packed at 9 B a value, strings in a list beside each page,
// and every row of a heap has the width of its first. Writes copy the row
// they are given; reads decode a slot into a buffer the caller owns and lend
// it: Get into the dst it is passed, ScanPage into *buf, Scan into one
// buffer a call; ScanMarked decodes into the caller's column vectors.
// Slots, pages and RIDs are as a heap of boxed rows had them, so every
// charge is too.
//
// Every Insert, Update and Delete advances the heap's version and stamps the
// page it wrote with it, so whatever was built from the heap at one version
// (a columnar snapshot) can ask which pages have moved since: Changed.
type Heap struct {
	mu      sync.RWMutex
	pages   []*page
	width   int // values a row, set by the first Insert
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

// Insert appends a copy of r and returns its RID. Page writes are charged
// against clk (which may be nil for bulk loading outside measured regions).
func (h *Heap) Insert(clk *Clock, r types.Row) RID {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pages) == 0 {
		h.width = len(r)
	}
	h.checkWidth(r)
	if len(h.pages) == 0 || h.pages[len(h.pages)-1].slots >= PageRows || h.sealed {
		h.pages = append(h.pages, newPage(r))
		h.sealed = false
		if clk != nil {
			clk.Write(1)
		}
	}
	p := h.pages[len(h.pages)-1]
	s := p.slots
	p.slots++
	p.vals = p.vals[:p.slots*len(r)*types.PackedSize]
	b := p.slot(s, len(r))
	for c, v := range r {
		p.pack(b[c*types.PackedSize:], v, -1)
	}
	p.live++
	h.rows++
	h.stamp(p)
	return MakeRID(len(h.pages)-1, s)
}

// newPage returns an empty page with room for PageRows rows like r: their
// values, and as many strings each as r has.
func newPage(r types.Row) *page {
	strs := 0
	for _, v := range r {
		if v.K == types.KindString {
			strs++
		}
	}
	return &page{vals: make([]byte, 0, PageRows*len(r)*types.PackedSize), strs: make([]string, 0, PageRows*strs)}
}

func (h *Heap) checkWidth(r types.Row) {
	if len(r) != h.width {
		panic(fmt.Sprintf("storage: a row of %d values into a heap of %d", len(r), h.width))
	}
}

// slot returns the packed values of slot s, w of them.
func (p *page) slot(s, w int) []byte {
	return p.vals[s*w*types.PackedSize : (s+1)*w*types.PackedSize]
}

// pack writes v at b. A string takes the list entry old — the one the value
// it replaces held, -1 for none — or, without one, a free entry or a new
// one; a value that is no string gives old up.
func (p *page) pack(b []byte, v types.Value, old int) {
	if v.K != types.KindString {
		if old >= 0 {
			p.giveUp(old)
		}
		types.Pack(b, v, -1)
		return
	}
	str := old
	switch {
	case str >= 0:
	case len(p.free) > 0:
		str = int(p.free[len(p.free)-1])
		p.free = p.free[:len(p.free)-1]
	default:
		str = len(p.strs)
		p.strs = append(p.strs, "")
	}
	p.strs[str] = v.S
	types.Pack(b, v, str)
}

// giveUp blanks list entry str, which no value names any more, so that it
// pins nothing, and frees it for the next string.
func (p *page) giveUp(str int) {
	p.strs[str] = ""
	p.free = append(p.free, int32(str))
}

// strAt returns the list entry the value packed at b holds, -1 for none.
func strAt(b []byte) int {
	if types.PackedKind(b) != types.KindString {
		return -1
	}
	return int(types.PackedWord(b))
}

// decode appends slot s, boxed, to dst.
func (h *Heap) decode(p *page, s int, dst types.Row) types.Row {
	n := len(dst)
	dst = slices.Grow(dst, h.width)[:n+h.width]
	b := p.slot(s, h.width)
	for c := range dst[n:] {
		types.UnpackInto(&dst[n+c], b[c*types.PackedSize:], p.strs)
	}
	return dst
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

// at returns the page and slot of a live rid, or nil.
func (h *Heap) at(rid RID) (*page, int) {
	pg, slot := rid.Page(), rid.Slot()
	if pg < 0 || pg >= len(h.pages) {
		return nil, 0
	}
	p := h.pages[pg]
	if slot < 0 || slot >= p.slots || p.dead&(1<<slot) != 0 {
		return nil, 0
	}
	return p, slot
}

// Get appends the row at rid, decoded, to dst and returns it, charging one
// random page read. dst is returned as it came when rid holds no row.
func (h *Heap) Get(clk *Clock, rid RID, dst types.Row) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if clk != nil {
		clk.RandRead(1)
	}
	p, s := h.at(rid)
	if p == nil {
		return dst, false
	}
	return h.decode(p, s, dst), true
}

// Delete removes the row at rid. Returns false if absent.
func (h *Heap) Delete(clk *Clock, rid RID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, s := h.at(rid)
	if p == nil {
		return false
	}
	b := p.slot(s, h.width)
	for c := 0; c < h.width; c++ {
		if str := strAt(b[c*types.PackedSize:]); str >= 0 {
			p.giveUp(str)
		}
	}
	p.dead |= 1 << s
	p.live--
	h.rows--
	h.stamp(p)
	if clk != nil {
		clk.Write(1)
	}
	return true
}

// Update overwrites the row at rid with a copy of r. A string replacing a
// string takes its list entry; one replacing another value takes a free
// entry, if the page has one.
func (h *Heap) Update(clk *Clock, rid RID, r types.Row) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, s := h.at(rid)
	if p == nil {
		return false
	}
	h.checkWidth(r)
	b := p.slot(s, h.width)
	for c, v := range r {
		at := b[c*types.PackedSize:]
		p.pack(at, v, strAt(at))
	}
	h.stamp(p)
	if clk != nil {
		clk.Write(1)
	}
	return true
}

// Scan iterates all live rows in physical order, charging one sequential
// page read per page touched, and lends each decoded into one buffer the
// call allocates: valid until fn returns. fn returns false to stop early.
func (h *Heap) Scan(clk *Clock, fn func(rid RID, r types.Row) bool) { h.ScanCols(clk, nil, fn) }

// ScanCols is Scan lending only the columns cols of each row, in that order
// (all of them when cols is nil): CREATE INDEX reads its keys so, without
// decoding the rest.
func (h *Heap) ScanCols(clk *Clock, cols []int, fn func(rid RID, r types.Row) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var buf types.Row
	for pi, p := range h.pages {
		if clk != nil {
			clk.SeqRead(1)
		}
		for s := 0; s < p.slots; s++ {
			if p.dead&(1<<s) != 0 {
				continue
			}
			if cols == nil {
				buf = h.decode(p, s, buf[:0])
			} else {
				b := p.slot(s, h.width)
				buf = slices.Grow(buf[:0], len(cols))[:len(cols)]
				for i, c := range cols {
					types.UnpackInto(&buf[i], b[c*types.PackedSize:], p.strs)
				}
			}
			if !fn(MakeRID(pi, s), buf) {
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

// ScanMarked decodes every live row in physical order into vecs, one value
// per vector as types.AppendRow does, charging nothing, and returns the
// heap's mark: both under one read lock, so they agree.
func (h *Heap) ScanMarked(vecs []types.Vector) HeapMark {
	h.mu.RLock()
	defer h.mu.RUnlock()
	m := HeapMark{Version: h.version, PageStart: make([]int32, len(h.pages)+1)}
	var pos int32
	for pi, p := range h.pages {
		m.PageStart[pi] = pos
		for c := range vecs { // a column at a time: one kind, one vector
			for s := 0; s < p.slots; s++ {
				if p.dead&(1<<s) == 0 {
					vecs[c].AppendPacked(p.vals[(s*h.width+c)*types.PackedSize:], p.strs)
				}
			}
		}
		pos += int32(p.live)
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
// sequential page read, and lends each decoded into *buf, which it grows to
// fit: valid until fn returns. It reports whether the page exists. Heap
// morsels and shared (circular) scans are built on this: many consumers ride
// one page read.
func (h *Heap) ScanPage(clk *Clock, pageNo int, buf *types.Row, fn func(rid RID, r types.Row) bool) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if pageNo < 0 || pageNo >= len(h.pages) {
		return false
	}
	if clk != nil {
		clk.SeqRead(1)
	}
	p := h.pages[pageNo]
	for s := 0; s < p.slots; s++ {
		if p.dead&(1<<s) != 0 {
			continue
		}
		*buf = h.decode(p, s, (*buf)[:0])
		if !fn(MakeRID(pageNo, s), *buf) {
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
