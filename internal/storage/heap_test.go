package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rqp/internal/types"
)

// modelHeap is the heap as it was before its pages were packed: boxed rows
// in slot slices, nil for a deleted slot, stamped like the real one. The
// round-trip tests hold the packed heap to it: the same rows, RIDs, pages,
// charges and Changed answers.
type modelHeap struct {
	pages   [][]types.Row
	stamps  []uint64
	sealed  bool
	version uint64
}

func (m *modelHeap) stamp(p int) { m.version++; m.stamps[p] = m.version }

func (m *modelHeap) insert(r types.Row) RID {
	if n := len(m.pages); n == 0 || len(m.pages[n-1]) >= PageRows || m.sealed {
		m.pages, m.stamps, m.sealed = append(m.pages, nil), append(m.stamps, 0), false
	}
	p := len(m.pages) - 1
	m.pages[p] = append(m.pages[p], r.Clone())
	m.stamp(p)
	return MakeRID(p, len(m.pages[p])-1)
}

func (m *modelHeap) get(rid RID) (types.Row, bool) {
	p, s := rid.Page(), rid.Slot()
	if p < 0 || p >= len(m.pages) || s >= len(m.pages[p]) || m.pages[p][s] == nil {
		return nil, false
	}
	return m.pages[p][s], true
}

func (m *modelHeap) write(rid RID, r types.Row) bool {
	if _, ok := m.get(rid); !ok {
		return false
	}
	m.pages[rid.Page()][rid.Slot()] = r
	m.stamp(rid.Page())
	return true
}

// rows lists the live rows of pages [lo, hi) in order, and their RIDs.
func (m *modelHeap) rows(lo, hi int) ([]types.Row, []RID) {
	var rows []types.Row
	var rids []RID
	for p := lo; p < hi; p++ {
		for s, r := range m.pages[p] {
			if r != nil {
				rows, rids = append(rows, r), append(rids, MakeRID(p, s))
			}
		}
	}
	return rows, rids
}

// changed is Changed on the model: stamped pages the mark covers, and the
// page count.
func (m *modelHeap) changed(mark HeapMark) ([]int32, int) {
	var out []int32
	for p := 0; p < min(len(m.pages), len(mark.PageStart)-1); p++ {
		if m.stamps[p] > mark.Version {
			out = append(out, int32(p))
		}
	}
	return out, len(m.pages)
}

// heapOps reads operations off data and runs each on a heap and its model,
// failing t at the first place the two disagree. Rows are heapWidth values
// wide, of every kind: NULLs, NaN payloads, ±0, ±Inf, empty strings.
type heapOps struct {
	t    *testing.T
	data []byte
	h    *Heap
	m    modelHeap
	rids []RID // every RID handed out, live or not
	mark HeapMark
	home [heapWidth]types.Kind // the kind each column keeps to
	mix  byte                  // how often, in 256, a value is of any kind
	// widths is each page's layout at the last check: no column narrows.
	widths map[*page][]col
}

const heapWidth = 5

func (o *heapOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *heapOps) word() uint64 {
	var w [8]byte
	n := copy(w[:], o.data)
	o.data = o.data[n:]
	return binary.LittleEndian.Uint64(w[:])
}

var specialFloats = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000abc), 1.5, -2.25e300}

var heapStrings = []string{"", "a", "", "long string value spanning more than sixteen bytes", "\x00", "é"}

// boundaryInts sit at and past the edges of each narrow word: ±2^7, ±2^15,
// ±2^31 and the int64 extremes.
var boundaryInts = []int64{1<<7 - 1, 1 << 7, -1 << 7, -1<<7 - 1, 1<<15 - 1, 1 << 15, -1 << 15, -1<<15 - 1,
	1<<31 - 1, 1 << 31, -1 << 31, -1<<31 - 1, math.MaxInt64, math.MinInt64}

func (o *heapOps) boundary() int64 { return boundaryInts[int(o.byte())%len(boundaryInts)] }

// value returns a value of any kind.
func (o *heapOps) value() types.Value {
	switch k := o.byte() % 10; k {
	case 0:
		return types.Null()
	case 1:
		return types.Int(int64(o.word()))
	case 2:
		return types.Float(math.Float64frombits(o.word()))
	case 3:
		return types.Float(specialFloats[int(o.byte())%len(specialFloats)])
	case 4, 5:
		return types.Str(heapStrings[int(o.byte())%len(heapStrings)])
	case 6:
		return types.Bool(o.byte()%2 == 0)
	case 7:
		return types.Date(int64(int32(o.word())))
	case 8:
		return types.Int(o.boundary())
	default:
		return types.Int(int64(o.byte()) - 128)
	}
}

// homeKinds are the kinds a column keeps to while the stream does not mix.
var homeKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindDate}

// mixes are how often, in 256, a column's value is of any kind, not of its
// home kind: a column that never mixes stays narrow on every page.
var mixes = []byte{0, 1, 8, 64, 255}

// start draws the stream's home kinds and its mix from its first bytes.
func (o *heapOps) start() {
	for c := range o.home {
		o.home[c] = homeKinds[int(o.byte())%len(homeKinds)]
	}
	o.mix = mixes[int(o.byte())%len(mixes)]
}

// homeValue returns a value of column c's home kind: small, wide or at a
// word's edge.
func (o *heapOps) homeValue(c int) types.Value {
	b := o.byte()
	switch o.home[c] {
	case types.KindFloat:
		if b%2 == 0 {
			return types.Float(specialFloats[int(b/2)%len(specialFloats)])
		}
		return types.Float(math.Float64frombits(o.word()))
	case types.KindString:
		return types.Str(heapStrings[int(b)%len(heapStrings)])
	case types.KindBool:
		return types.Bool(b%2 == 0)
	}
	v := int64(b%64) - 32
	switch b % 8 {
	case 0:
		v = o.boundary()
	case 1:
		v = int64(o.word())
	}
	return types.Value{K: o.home[c], I: v}
}

func (o *heapOps) row() types.Row {
	r := make(types.Row, heapWidth)
	for i := range r {
		if o.byte() < o.mix {
			r[i] = o.value()
		} else {
			r[i] = o.homeValue(i)
		}
	}
	return r
}

// rid picks a handed-out RID, or now and then one no slot ever had.
func (o *heapOps) rid() RID {
	b := o.byte()
	if len(o.rids) == 0 || b == 255 {
		return MakeRID(int(o.byte()%8), int(o.byte()%(PageRows+2)))
	}
	return o.rids[int(b)%len(o.rids)]
}

func sameRows(a, b []types.Row) bool {
	return types.HashRows(a) == types.HashRows(b) && len(a) == len(b)
}

func (o *heapOps) run() {
	t := o.t
	o.start()
	for step := 0; len(o.data) > 0; step++ {
		switch op := o.byte() % 13; op {
		case 0, 1, 2:
			r := o.row()
			rid, want := o.h.Insert(nil, r), o.m.insert(r)
			for i := range r {
				r[i] = types.Str("scribbled") // the heap keeps a copy
			}
			if rid != want {
				t.Fatalf("step %d: Insert gave %v, model %v", step, rid, want)
			}
			o.rids = append(o.rids, rid)
		case 3:
			rid := o.rid()
			prefix := types.Row{types.Int(-7)}
			got, ok := o.h.Get(nil, rid, prefix)
			want, wok := o.m.get(rid)
			if ok != wok || !sameRows([]types.Row{got[:1]}, []types.Row{prefix}) || ok && !sameRows([]types.Row{got[1:]}, []types.Row{want}) {
				t.Fatalf("step %d: Get(%v) = %v %v, model %v %v", step, rid, got, ok, want, wok)
			}
		case 4:
			// Updates between strings and other kinds come from the
			// generator's mix.
			o.update(step, o.rid(), o.row())
		case 5:
			// One row flips whole between strings and NULLs, string to
			// string on the way: each flip back takes entries the last one
			// gave up, which check bounds.
			rid := o.rid()
			for flip := int(o.byte()%16) + 1; flip >= 0; flip-- {
				r := make(types.Row, heapWidth)
				for i := range r {
					r[i] = types.Null()
					if flip%2 == 0 {
						r[i] = types.Str(heapStrings[(i+flip)%len(heapStrings)])
					}
				}
				o.update(step, rid, r)
			}
		case 6:
			rid := o.rid()
			if ok, want := o.h.Delete(nil, rid), o.m.write(rid, nil); ok != want {
				t.Fatalf("step %d: Delete(%v) = %v, model %v", step, rid, ok, want)
			}
		case 7:
			o.h.SealPage()
			o.m.sealed = len(o.m.pages) > 0
		case 8:
			vecs := types.NewVectors(make(types.Schema, heapWidth), 0)
			o.mark = o.h.ScanMarked(vecs)
			want, _ := o.m.rows(0, len(o.m.pages))
			got := make([]types.Row, vecs[0].Len())
			for i := range got {
				for c := range vecs {
					got[i] = append(got[i], vecs[c].Value(i))
				}
			}
			if !sameRows(got, want) || o.mark.Version != o.m.version {
				t.Fatalf("step %d: ScanMarked read %v at version %d, model %v at %d", step, got, o.mark.Version, want, o.m.version)
			}
		case 9:
			// One column of one row, of ints or dates, crosses a word's
			// edge: its page widens that column.
			rid, c := o.rid(), int(o.byte())%heapWidth
			v := o.homeValue(c)
			if v.K == types.KindInt || v.K == types.KindDate {
				v.I = o.boundary()
			}
			o.set(step, rid, c, v)
		case 10:
			// One column of one row turns Int → Float → NULL → String and
			// back: its page's column goes packed on the way and stays so.
			rid, c := o.rid(), int(o.byte())%heapWidth
			for _, v := range []types.Value{types.Int(int64(o.byte())), types.Float(1.5), types.Null(), types.Str("é"),
				types.Null(), types.Float(-0.25), types.Int(int64(o.byte()) - 128)} {
				o.set(step, rid, c, v)
			}
		case 11:
			// A page re-laid while dead and live slots hold values: delete
			// the row beside rid, then give every column of rid a value of
			// another kind than it holds, each one wide.
			rid := o.rid()
			next := MakeRID(rid.Page(), rid.Slot()^1)
			if ok, want := o.h.Delete(nil, next), o.m.write(next, nil); ok != want {
				t.Fatalf("step %d: Delete(%v) = %v, model %v", step, next, ok, want)
			}
			if r, ok := o.m.get(rid); ok {
				wide := make(types.Row, heapWidth)
				for c, v := range r {
					wide[c] = types.Int(math.MinInt64)
					if v.K == types.KindInt {
						wide[c] = types.Str(heapStrings[c%len(heapStrings)])
					}
				}
				o.update(step, rid, wide)
			}
		default:
			o.check(step)
		}
	}
	o.check(-1)
}

// set writes v into column c of the row at rid, if it is live, on the heap
// and the model.
func (o *heapOps) set(step int, rid RID, c int, v types.Value) {
	if r, ok := o.m.get(rid); ok {
		r = r.Clone()
		r[c] = v
		o.update(step, rid, r)
	}
}

// update runs Update on the heap and the model, then scribbles over r: the
// heap keeps a copy.
func (o *heapOps) update(step int, rid RID, r types.Row) {
	if ok, want := o.h.Update(nil, rid, r), o.m.write(rid, r.Clone()); ok != want {
		o.t.Fatalf("step %d: Update(%v) = %v, model %v", step, rid, ok, want)
	}
	for i := range r {
		r[i] = types.Int(-1)
	}
}

// check compares everything a reader sees: rows and RIDs through Scan,
// ScanCols and ScanPage, the charges, the counts and what Changed says since
// the last mark — and that no page lists more strings than its slots hold.
func (o *heapOps) check(step int) {
	t, h, m := o.t, o.h, &o.m
	if h.NumPages() != len(m.pages) {
		t.Fatalf("step %d: %d pages, model %d", step, h.NumPages(), len(m.pages))
	}
	want, wantRIDs := m.rows(0, len(m.pages))
	if h.NumRows() != int64(len(want)) {
		t.Fatalf("step %d: %d rows, model %d", step, h.NumRows(), len(want))
	}
	var got []types.Row
	var rids []RID
	clk := NewClock(DefaultCostModel())
	h.Scan(clk, func(rid RID, r types.Row) bool {
		got, rids = append(got, r.Clone()), append(rids, rid)
		return true
	})
	if !sameRows(got, want) || !slices.Equal(rids, wantRIDs) {
		t.Fatalf("step %d: Scan differs from the model:\n%v\n%v", step, got, want)
	}
	if s, _, _, _ := clk.Counters(); s != int64(len(m.pages)) {
		t.Fatalf("step %d: Scan charged %d page reads for %d pages", step, s, len(m.pages))
	}
	cols := []int{3, 0, 3}
	got = got[:0]
	h.ScanCols(nil, cols, func(_ RID, r types.Row) bool {
		got = append(got, r.Clone())
		return true
	})
	for i, r := range want {
		if i >= len(got) || !sameRows(got[i:i+1], []types.Row{{r[3], r[0], r[3]}}) {
			t.Fatalf("step %d: ScanCols(%v) row %d differs from the model's", step, cols, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: ScanCols read %d rows, model %d", step, len(got), len(want))
	}
	var buf types.Row
	for p := range m.pages {
		got, rids = got[:0], rids[:0]
		h.ScanPage(nil, p, nil, &buf, func(rid RID, r types.Row) bool {
			got, rids = append(got, r.Clone()), append(rids, rid)
			return true
		})
		want, wantRIDs := m.rows(p, p+1)
		if !sameRows(got, want) || !slices.Equal(rids, wantRIDs) || len(buf) != len(want)*heapWidth {
			t.Fatalf("step %d: ScanPage(%d) differs from the model, or left %d values in its buffer", step, p, len(buf))
		}
		// Decoding columns 1 and 3 only leaves the other positions as the
		// buffer held them.
		for i := range buf {
			buf[i] = unread
		}
		i := 0
		h.ScanPage(nil, p, []int{1, 3}, &buf, func(rid RID, r types.Row) bool {
			w := want[i]
			if len(r) != heapWidth || !sameRows([]types.Row{r}, []types.Row{{unread, w[1], unread, w[3], unread}}) {
				t.Fatalf("step %d: ScanPage(%d) of columns 1 and 3 lent %v for %v", step, p, r, w)
			}
			i++
			return true
		})
	}
	for p, pg := range h.pages {
		if len(pg.strs) > pg.slots*h.width {
			t.Fatalf("step %d: page %d lists %d strings for %d slots of %d values", step, p, len(pg.strs), pg.slots, h.width)
		}
		o.checkLayout(step, p, pg)
	}
	if o.mark.PageStart != nil {
		pages, n := h.Changed(o.mark, nil)
		wantPages, wantN := m.changed(o.mark)
		if n != wantN || !slices.Equal(pages, wantPages) {
			t.Fatalf("step %d: Changed = %v %d, model %v %d", step, pages, n, wantPages, wantN)
		}
	}
}

// unread marks a position a scan was not asked to decode.
var unread = types.Str("unread")

// checkLayout fails a page whose columns are not laid out as the heap's
// forms allow, whose slab is not the size its layout needs, or one of whose
// columns narrowed, or changed kind while narrow, since the last check.
func (o *heapOps) checkLayout(step, p int, pg *page) {
	if o.widths == nil {
		o.widths = map[*page][]col{}
	}
	if len(pg.slab) != slabBytes(pg.cols) {
		o.t.Fatalf("step %d: page %d has a slab of %d B, its layout %v needs %d", step, p, len(pg.slab), pg.cols, slabBytes(pg.cols))
	}
	was := o.widths[pg]
	for c, l := range pg.cols {
		switch {
		case l.width != 1 && l.width != 2 && l.width != 4 && l.width != 8 && l.width != types.PackedSize,
			(l.width == types.PackedSize) != (l.kind == types.KindNull),
			l.kind == types.KindFloat && l.width != 8,
			was != nil && (l.width < was[c].width || l.width != types.PackedSize && l.kind != was[c].kind):
			o.t.Fatalf("step %d: page %d column %d is laid out %+v, was %+v", step, p, c, l, was)
		}
	}
	o.widths[pg] = pg.cols
}

// TestHeapRoundTripProperty runs random operation streams against the
// model: every row the packed heap gives back is the one put in, bit for
// bit, at the RID and on the page the boxed heap would have used.
func TestHeapRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, 200+rng.Intn(6000))
		rng.Read(data)
		(&heapOps{t: t, data: data, h: NewHeap()}).run()
	}
}

// FuzzHeapRoundTrip is TestHeapRoundTripProperty over fuzzed streams.
func FuzzHeapRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte("\x00\x04\x00\x04\x05\x00\x08\x00\x05\x01\x09\x06\x00\x09"))
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 4; i++ {
		data := make([]byte, 600)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every check reads the whole heap: past a few thousand operations
		// a stream costs more than it explores.
		data = data[:min(len(data), 2<<10)]
		(&heapOps{t: t, data: data, h: NewHeap()}).run()
	})
}

// TestHeapPageLayout: a page keeps each column in the fewest of 1, 2, 4 or 8
// bytes that hold its values as signed words, a float in 8 and a column with
// a NULL or two kinds in it packed; a write that does not fit re-lays the
// page wider, and a new page starts at the widths of the one before it.
func TestHeapPageLayout(t *testing.T) {
	h := NewHeap()
	widths := func(p int) []uint8 {
		var w []uint8
		for _, l := range h.pages[p].cols {
			w = append(w, l.width)
		}
		return w
	}
	expect := func(step string, p int, want ...uint8) {
		t.Helper()
		if got := widths(p); !slices.Equal(got, want) {
			t.Fatalf("%s: page %d is laid out %v, want %v", step, p, got, want)
		}
		if got, want := len(h.pages[p].slab), slabBytes(h.pages[p].cols); got != want {
			t.Fatalf("%s: page %d has a slab of %d B, its layout needs %d", step, p, got, want)
		}
	}
	row := func(i int64, s string) types.Row {
		return types.Row{types.Int(i), types.Float(0.5), types.Str(s), types.Date(9000), types.Bool(true), types.Int(0)}
	}
	h.Insert(nil, row(1, "a"))
	expect("first row", 0, 1, 8, 1, 2, 1, 1)
	h.Insert(nil, row(200, "b"))
	expect("a 2-byte int", 0, 2, 8, 1, 2, 1, 1)
	rid := h.Insert(nil, row(-1<<31, "c"))
	expect("-2^31", 0, 4, 8, 1, 2, 1, 1)
	h.Update(nil, rid, types.Row{types.Int(1 << 31), types.Float(0.5), types.Str("c"), types.Date(9000), types.Bool(true), types.Null()})
	expect("2^31 and a NULL", 0, 8, 8, 1, 2, 1, types.PackedSize)
	for h.NumPages() == 1 {
		h.Insert(nil, row(3, "d"))
	}
	expect("a new page", 1, 8, 8, 1, 2, 1, types.PackedSize)
	h.Update(nil, MakeRID(1, 0), row(3, "e"))
	h.Delete(nil, MakeRID(1, 0))
	h.Update(nil, MakeRID(0, 0), types.Row{types.Str("x"), types.Float(0.5), types.Int(0), types.Date(9000), types.Bool(true), types.Int(0)})
	expect("two kinds in a column", 0, types.PackedSize, 8, types.PackedSize, 2, 1, types.PackedSize)
	expect("the page after", 1, 8, 8, 1, 2, 1, types.PackedSize)
	got, _ := h.Get(nil, MakeRID(0, 1), nil)
	if want := row(200, "b"); !sameRows([]types.Row{got}, []types.Row{want}) {
		t.Fatalf("re-laid row reads %v, want %v", got, want)
	}

	// A string's word is its entry in the page's list: a page of three
	// string columns lists 192 strings, and a column widens once one of its
	// entries passes 127.
	h = NewHeap()
	for i := 0; i < PageRows; i++ {
		h.Insert(nil, types.Row{types.Str("a"), types.Str("b"), types.Str("c")})
		want := []uint8{1, 1, 1}
		for c := range want {
			if 3*i+c > 127 {
				want[c] = 2
			}
		}
		expect(fmt.Sprintf("%d strings", 3*(i+1)), 0, want...)
	}
}
