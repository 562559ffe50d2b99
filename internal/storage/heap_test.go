package storage

import (
	"encoding/binary"
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

func (o *heapOps) value() types.Value {
	switch k := o.byte() % 9; k {
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
	default:
		return types.Int(int64(o.byte()) - 128)
	}
}

func (o *heapOps) row() types.Row {
	r := make(types.Row, heapWidth)
	for i := range r {
		r[i] = o.value()
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
	for step := 0; len(o.data) > 0; step++ {
		switch op := o.byte() % 10; op {
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
		default:
			o.check(step)
		}
	}
	o.check(-1)
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
		h.ScanPage(nil, p, &buf, func(rid RID, r types.Row) bool {
			got, rids = append(got, r.Clone()), append(rids, rid)
			return true
		})
		want, wantRIDs := m.rows(p, p+1)
		if !sameRows(got, want) || !slices.Equal(rids, wantRIDs) {
			t.Fatalf("step %d: ScanPage(%d) differs from the model", step, p)
		}
	}
	for p, pg := range h.pages {
		if len(pg.strs) > pg.slots*h.width {
			t.Fatalf("step %d: page %d lists %d strings for %d slots of %d values", step, p, len(pg.strs), pg.slots, h.width)
		}
	}
	if o.mark.PageStart != nil {
		pages, n := h.Changed(o.mark, nil)
		wantPages, wantN := m.changed(o.mark)
		if n != wantN || !slices.Equal(pages, wantPages) {
			t.Fatalf("step %d: Changed = %v %d, model %v %d", step, pages, n, wantPages, wantN)
		}
	}
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
