package storage

import (
	"encoding/binary"
	"fmt"
	"math"
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

// Heap is a page-organized table. Scans charge sequential page reads on the
// clock; point fetches charge random reads. The heap is safe for concurrent
// readers with a single writer class via RWMutex (sufficient for the mixed
// workload experiments, which model logical not physical contention).
//
// Each page lays its rows out column by column (PAX), a column at the width
// its values need there (page, col), strings in a list beside the page, and
// every row of a heap has the width of its first. A new page starts at the
// widths of the page before it, widened to fit its first row. Writes copy the
// row they are given; reads decode into a buffer the caller owns and lend
// it: Get a slot into the dst it is passed, ScanPage a page into *buf, Scan
// a page at a time into one buffer a call; ScanMarked decodes into the
// caller's column vectors. A page read decodes one column at a time, and
// ScanPage and ScanCols only the columns asked for. Slots, pages and RIDs
// are as a heap of boxed rows had them, so every charge is too.
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
		h.pages = append(h.pages, h.newPage(r))
		h.sealed = false
		if clk != nil {
			clk.Write(1)
		}
	}
	p := h.pages[len(h.pages)-1]
	s := p.slots
	p.put(s, r, false)
	p.slots++
	p.live++
	h.rows++
	h.stamp(p)
	return MakeRID(len(h.pages)-1, s)
}

// newPage returns an empty page laid out as the last one, or with no value
// yet for the first, and room for as many strings a slot as r has. Its slab
// comes with its first row.
func (h *Heap) newPage(r types.Row) *page {
	strs := 0
	for _, v := range r {
		if v.K == types.KindString {
			strs++
		}
	}
	var cols []col
	if n := len(h.pages); n > 0 {
		cols = h.pages[n-1].cols
	} else {
		cols = make([]col, len(r))
	}
	return &page{cols: cols, strs: make([]string, 0, PageRows*strs)}
}

func (h *Heap) checkWidth(r types.Row) {
	if len(r) != h.width {
		panic(fmt.Sprintf("storage: a row of %d values into a heap of %d", len(r), h.width))
	}
}

// page keeps its slots column by column in one slab, each column at the
// width its values on the page need (col): slot s's value of column c is the
// word at cols[c].off + s*cols[c].width, and a string's word is its index in
// strs. An entry no value names any more is blanked and listed in free for
// the next string to take, so strs holds no more entries than the most
// strings the page's slots have held at once. A write a column's width does
// not hold re-lays the page wider into a new slab; a column never narrows.
// cols is shared by the pages laid out alike and never written: a re-lay
// makes a new one. A read decodes slots into rows the reader owns; no Value
// is kept.
type page struct {
	slab  []byte
	cols  []col
	strs  []string
	free  []int32
	dead  uint64 // bit s: slot s was deleted (a page has PageRows = 64 slots)
	slots int    // slots used, live or dead
	live  int
	stamp uint64 // the heap version the last write to this page made
}

// col is how a page keeps one column: PageRows words of width bytes from
// off in its slab. A word of 1, 2, 4 or 8 bytes is a value of kind kind, cut
// to width and sign-extended back: an int's, date's or bool's payload, a
// float's bits (always 8 bytes), a string's index. Width types.PackedSize
// keeps each value packed, kind and all: the form of a column whose values
// on the page differ in kind or hold a NULL. Width 0 holds no value yet: a
// heap's first page starts so.
type col struct {
	off   int32
	kind  types.Kind
	width uint8
}

// holds reports whether c's form holds the value of kind k whose word is u.
func (c col) holds(k types.Kind, u uint64) bool {
	if c.width == types.PackedSize {
		return true
	}
	sh := 64 - 8*uint(c.width) // 64 for width 0: no value fits
	return k == c.kind && c.width > 0 && int64(u)<<sh>>sh == int64(u)
}

// fit returns the narrowest form no narrower than c that holds the value of
// kind k whose word is u, at c's offset.
func (c col) fit(k types.Kind, u uint64) col {
	if c.width == types.PackedSize || k == types.KindNull || c.width > 0 && k != c.kind {
		return col{off: c.off, width: types.PackedSize}
	}
	w := uint8(8)
	if x := int64(u); k != types.KindFloat {
		switch {
		case x == int64(int8(x)):
			w = 1
		case x == int64(int16(x)):
			w = 2
		case x == int64(int32(x)):
			w = 4
		}
	}
	return col{off: c.off, kind: k, width: max(c.width, w)}
}

// word returns the kind and word of slot s's value of column c.
func (p *page) word(c, s int) (types.Kind, uint64) {
	l := p.cols[c]
	b := p.slab[int(l.off)+s*int(l.width):]
	switch l.width {
	case 1:
		return l.kind, uint64(int8(b[0]))
	case 2:
		return l.kind, uint64(int16(binary.LittleEndian.Uint16(b)))
	case 4:
		return l.kind, uint64(int32(binary.LittleEndian.Uint32(b)))
	case 8:
		return l.kind, binary.LittleEndian.Uint64(b)
	}
	return types.PackedKind(b), types.PackedWord(b)
}

// setWord writes the value of kind k whose word is u into slot s of column
// c, whose form holds it.
func (p *page) setWord(c, s int, k types.Kind, u uint64) {
	l := p.cols[c]
	b := p.slab[int(l.off)+s*int(l.width):]
	switch l.width {
	case 1:
		b[0] = byte(u)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(u))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(u))
	case 8:
		binary.LittleEndian.PutUint64(b, u)
	default:
		types.PackWord(b, k, u)
	}
}

// words reads column c's words at the live slots, in slot order, into w,
// and returns how many it read: one loop a width over every used slot, then
// the dead slots' words dropped. A packed column's kinds go to k; a narrow
// column's are all its kind.
func (p *page) words(c int, k *[PageRows]types.Kind, w *[PageRows]uint64) int {
	l := p.cols[c]
	b := p.slab[l.off : int(l.off)+PageRows*int(l.width)]
	ws := w[:p.slots]
	switch l.width {
	case 1:
		for s := range ws {
			ws[s] = uint64(int8(b[s]))
		}
	case 2:
		for s := range ws {
			ws[s] = uint64(int16(binary.LittleEndian.Uint16(b[2*s:])))
		}
	case 4:
		for s := range ws {
			ws[s] = uint64(int32(binary.LittleEndian.Uint32(b[4*s:])))
		}
	case 8:
		for s := range ws {
			ws[s] = binary.LittleEndian.Uint64(b[8*s:])
		}
	default:
		for s := range ws {
			at := b[types.PackedSize*s:]
			k[s], ws[s] = types.PackedKind(at), types.PackedWord(at)
		}
	}
	if p.dead == 0 {
		return p.slots
	}
	n := 0
	for s := range ws {
		if p.dead&(1<<s) == 0 {
			k[n], w[n] = k[s], ws[s]
			n++
		}
	}
	return n
}

// unpack decodes column c of the live slots into dst, the i'th at
// dst[i*stride]: a narrow column in a loop typed by its kind.
func (p *page) unpack(c int, dst []types.Value, stride int) {
	var k [PageRows]types.Kind
	var w [PageRows]uint64
	n := p.words(c, &k, &w)
	switch l := p.cols[c]; {
	case l.width == types.PackedSize:
		for i := range n {
			types.UnpackWord(&dst[i*stride], k[i], w[i], p.strs)
		}
	case l.kind == types.KindFloat:
		for i := range n {
			dst[i*stride] = types.Value{K: types.KindFloat, F: math.Float64frombits(w[i])}
		}
	case l.kind == types.KindString:
		for i := range n {
			dst[i*stride] = types.Value{K: types.KindString, S: p.strs[w[i]]}
		}
	default:
		for i := range n {
			dst[i*stride] = types.Value{K: l.kind, I: int64(w[i])}
		}
	}
}

// appendTo appends column c of the live slots to v.
func (p *page) appendTo(c int, v *types.Vector) {
	var k [PageRows]types.Kind
	var w [PageRows]uint64
	n := p.words(c, &k, &w)
	if l := p.cols[c]; l.width != types.PackedSize {
		v.AppendWords(l.kind, w[:n], p.strs)
		return
	}
	for i := range n {
		v.AppendWord(k[i], w[i], p.strs)
	}
}

// put writes r into slot s, re-laying the page first when a column's form
// does not hold r's value. A string takes the list entry the value it
// replaces held — when replace, for an Update — or, without one, a free
// entry or a new one; a value that is no string gives that entry up.
func (p *page) put(s int, r types.Row, replace bool) {
	var kb [16]types.Kind
	var wb [16]uint64
	ks, ws := kb[:0], wb[:0]
	cols, wider := p.cols, false
	for c, v := range r {
		old := -1
		if replace {
			old = p.strAt(c, s)
		}
		k, u := v.K, types.Word(v, p.entry(v, old))
		if !cols[c].holds(k, u) {
			if !wider {
				cols, wider = slices.Clone(cols), true
			}
			cols[c] = cols[c].fit(k, u)
		}
		ks, ws = append(ks, k), append(ws, u)
	}
	switch {
	case wider:
		p.relay(cols)
	case p.slab == nil:
		p.slab = make([]byte, slabBytes(cols))
	}
	for c := range r {
		p.setWord(c, s, ks[c], ws[c])
	}
}

// slabBytes is the size of a slab laid out as cols.
func slabBytes(cols []col) int {
	if len(cols) == 0 {
		return 0
	}
	l := cols[len(cols)-1]
	return int(l.off) + PageRows*int(l.width)
}

// relay lays the page out as cols, a layout of its own whose offsets it
// sets, in a new slab, carrying over every used slot's values.
func (p *page) relay(cols []col) {
	off := 0
	for c := range cols {
		cols[c].off = int32(off)
		off += PageRows * int(cols[c].width)
	}
	q := page{slab: make([]byte, off), cols: cols}
	if p.slab != nil {
		for c := range cols {
			for s := 0; s < p.slots; s++ {
				k, u := p.word(c, s)
				q.setWord(c, s, k, u)
			}
		}
	}
	p.slab, p.cols = q.slab, q.cols
}

// entry returns the list entry v takes, -1 for a value that is no string:
// old, the entry the value it replaces held (-1 for none), or without one a
// free entry or a new one. A value that is no string gives old up.
func (p *page) entry(v types.Value, old int) int {
	if v.K != types.KindString {
		if old >= 0 {
			p.giveUp(old)
		}
		return -1
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
	return str
}

// giveUp blanks list entry str, which no value names any more, so that it
// pins nothing, and frees it for the next string.
func (p *page) giveUp(str int) {
	p.strs[str] = ""
	p.free = append(p.free, int32(str))
}

// strAt returns the list entry slot s's value of column c holds, -1 for
// none.
func (p *page) strAt(c, s int) int {
	if k, u := p.word(c, s); k == types.KindString {
		return int(u)
	}
	return -1
}

// decode appends slot s, boxed, to dst.
func (h *Heap) decode(p *page, s int, dst types.Row) types.Row {
	n := len(dst)
	dst = slices.Grow(dst, h.width)[:n+h.width]
	for c := range dst[n:] {
		k, u := p.word(c, s)
		types.UnpackWord(&dst[n+c], k, u, p.strs)
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
	for c := 0; c < h.width; c++ {
		if str := p.strAt(c, s); str >= 0 {
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
	p.put(s, r, true)
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
	for pi := range h.pages {
		if clk != nil {
			clk.SeqRead(1)
		}
		if !h.lend(pi, cols, true, &buf, fn) {
			return
		}
	}
}

// lend decodes the live slots of page pi into *buf, resized to fit, a row a
// slot — column cols[i] (every column when cols is nil) at position i of a
// row len(cols) wide when dense, at position cols[i] of a row the heap's
// width otherwise — and lends fn each row in slot order. It reports whether
// fn asked for more.
func (h *Heap) lend(pi int, cols []int, dense bool, buf *types.Row, fn func(rid RID, r types.Row) bool) bool {
	p := h.pages[pi]
	w := h.width
	if dense && cols != nil {
		w = len(cols)
	}
	*buf = slices.Grow((*buf)[:0], p.live*w)[:p.live*w]
	rows := *buf
	if p.live == 0 {
		return true
	}
	if cols == nil {
		for c := range w {
			p.unpack(c, rows[c:], w)
		}
	}
	for i, c := range cols {
		at := c
		if dense {
			at = i
		}
		p.unpack(c, rows[at:], w)
	}
	for s := 0; s < p.slots; s++ {
		if p.dead&(1<<s) != 0 {
			continue
		}
		if !fn(MakeRID(pi, s), rows[:w:w]) {
			return false
		}
		rows = rows[w:]
	}
	return true
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
			p.appendTo(c, &vecs[c])
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
// sequential page read. It decodes the page into *buf, resized to hold a
// row the heap's width a live slot, back to back, and lends fn each row
// there: valid until fn returns. It decodes the columns cols only (all of
// them when cols is nil), each at its own position; the other positions
// keep what *buf held. It reports whether the page exists. Heap morsels and
// shared (circular) scans are built on this: many consumers ride one page
// read.
func (h *Heap) ScanPage(clk *Clock, pageNo int, cols []int, buf *types.Row, fn func(rid RID, r types.Row) bool) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if pageNo < 0 || pageNo >= len(h.pages) {
		return false
	}
	if clk != nil {
		clk.SeqRead(1)
	}
	h.lend(pageNo, cols, false, buf, fn)
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
