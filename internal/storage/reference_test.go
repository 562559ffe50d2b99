package storage

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rqp/internal/types"
)

// referenceColumnStore is the snapshot builder as it stood before ANALYZE
// read typed vectors — a boxed copy of every column, a fresh code slice per
// block — with the decimal rule derived from each float's shortest decimal
// form, and every float block it does not store decimal boxed raw. It is the
// oracle BuildColumnStore must match: same encodings, exponents, zones,
// bytes and decoded values.
func referenceColumnStore(rows []types.Row, ncols, blockSize int) *ColumnStore {
	if blockSize <= 0 {
		blockSize = DefaultColBlock
	}
	cs := &ColumnStore{
		cols:      make([]column, ncols),
		rows:      len(rows),
		blockSize: blockSize,
		pageBytes: int64(PageRows) * 8 * int64(ncols),
	}
	if cs.pageBytes == 0 {
		cs.pageBytes = int64(PageRows) * 8
	}
	vals := make([]types.Value, len(rows))
	for c := 0; c < ncols; c++ {
		for i, r := range rows {
			if c < len(r) {
				vals[i] = r[c]
			} else {
				vals[i] = types.Null()
			}
		}
		cs.cols[c] = refBuildColumn(vals, blockSize)
	}
	return cs
}

// refColumnClass classifies a column's values: dictionary for all-string
// columns, integer encodings for uniform int/date/bool columns, decimal or
// raw blocks for uniform float columns, raw otherwise (any NULL or kind mix
// forces raw so encoded blocks are NULL-free).
func refColumnClass(vals []types.Value) (kind types.Kind, ok bool) {
	kind = types.KindNull
	for _, v := range vals {
		if v.IsNull() {
			return types.KindNull, false
		}
		if kind == types.KindNull {
			kind = v.K
		} else if v.K != kind {
			return types.KindNull, false
		}
	}
	return kind, kind != types.KindNull
}

func refBuildColumn(vals []types.Value, blockSize int) column {
	col := column{kind: types.KindNull}
	kind, ok := refColumnClass(vals)
	if ok {
		col.kind = kind
		if kind == types.KindString {
			col.dict = refBuildDict(vals)
		}
	}
	var off int64
	for start := 0; start < len(vals); start += blockSize {
		end := start + blockSize
		if end > len(vals) {
			end = len(vals)
		}
		var blk colBlock
		switch {
		case !ok:
			blk = refEncodeRaw(vals[start:end])
		case kind == types.KindString:
			blk = refEncodeDict(vals[start:end], col.dict)
		case kind == types.KindFloat:
			blk = refEncodeFloats(vals[start:end])
		default:
			blk = refEncodeInts(vals[start:end], kind)
		}
		blk.startByte = off
		off += blk.bytes
		col.blocks = append(col.blocks, blk)
	}
	col.bytes = off
	return col
}

func refBuildDict(vals []types.Value) []string {
	seen := make(map[string]struct{}, 64)
	for _, v := range vals {
		seen[v.S] = struct{}{}
	}
	dict := make([]string, 0, len(seen))
	for s := range seen {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	return dict
}

func refEncodeRaw(vals []types.Value) colBlock {
	blk := colBlock{rows: len(vals), enc: encRaw, bytes: int64(len(vals)) * 8}
	blk.raw = append([]types.Value(nil), vals...)
	blk.min, blk.max, blk.hasZone = zoneOf(vals)
	return blk
}

func refEncodeDict(vals []types.Value, dict []string) colBlock {
	width := bits.Len64(uint64(len(dict)) - 1)
	if len(dict) <= 1 {
		width = 0
	}
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		codes[i] = uint64(sort.SearchStrings(dict, v.S))
	}
	blk := colBlock{
		rows:  len(vals),
		enc:   encDict,
		width: width,
		words: packBits(codes, width),
		bytes: int64(len(vals)*width+7) / 8,
	}
	blk.min, blk.max, blk.hasZone = zoneOf(vals)
	return blk
}

// refEncodeFloats stores a float block as its decimal integers when
// refDecimal finds them and they do not come out raw, boxed raw otherwise.
func refEncodeFloats(vals []types.Value) colBlock {
	ks, e, ok := refDecimal(vals)
	if !ok {
		return refEncodeRaw(vals)
	}
	blk := refEncodeInts(ks, types.KindInt)
	if blk.enc == encRaw {
		return refEncodeRaw(vals)
	}
	blk.exp = uint8(e)
	blk.min, blk.max, blk.hasZone = zoneOf(vals)
	return blk
}

// refDecimal reads the decimal rule off each value's shortest decimal form,
// which parses back to it: e is the most digits any value shows after the
// point, and a value's k its digits padded to e of them. The block is
// decimal when e <= maxDecimalExp and every k is an integer below 2^53 in
// magnitude whose k·10^-e parses back to the value's bits.
func refDecimal(vals []types.Value) (ks []types.Value, e int, ok bool) {
	whole, frac := make([]string, len(vals)), make([]string, len(vals))
	for i, v := range vals {
		whole[i], frac[i], _ = strings.Cut(strconv.FormatFloat(v.F, 'f', -1, 64), ".")
		e = max(e, len(frac[i]))
	}
	if e > maxDecimalExp {
		return nil, 0, false
	}
	ks = make([]types.Value, len(vals))
	for i, v := range vals {
		k, err := strconv.ParseInt(whole[i]+frac[i]+strings.Repeat("0", e-len(frac[i])), 10, 64)
		if err != nil || k <= -1<<53 || k >= 1<<53 {
			return nil, 0, false
		}
		back, err := strconv.ParseFloat(strconv.FormatInt(k, 10)+"e-"+strconv.Itoa(e), 64)
		if err != nil || math.Float64bits(back) != math.Float64bits(v.F) {
			return nil, 0, false
		}
		ks[i] = types.Int(k)
	}
	return ks, e, true
}

// refEncodeInts picks the smallest of RLE, offset bit-packing and raw for one
// integer-like block. RLE stores 16 bytes per run (value + length), packing
// stores an 8-byte base plus width bits per value.
func refEncodeInts(vals []types.Value, kind types.Kind) colBlock {
	n := len(vals)
	runs := 0
	lo, hi := vals[0].I, vals[0].I
	for i, v := range vals {
		if i == 0 || v.I != vals[i-1].I {
			runs++
		}
		if v.I < lo {
			lo = v.I
		}
		if v.I > hi {
			hi = v.I
		}
	}
	width := bits.Len64(uint64(hi - lo))
	rleBytes := int64(runs) * 16
	packedBytes := 8 + int64(n*width+7)/8
	rawBytes := int64(n) * 8

	blk := colBlock{rows: n, enc: encRaw, bytes: rawBytes}
	switch {
	case rleBytes <= packedBytes && rleBytes <= rawBytes:
		blk.enc, blk.bytes = encRLE, rleBytes
		for i, v := range vals {
			if i == 0 || v.I != vals[i-1].I {
				blk.runVal = append(blk.runVal, v.I)
				blk.runLen = append(blk.runLen, 1)
			} else {
				blk.runLen[len(blk.runLen)-1]++
			}
		}
	case packedBytes <= rawBytes:
		blk.enc, blk.bytes = encPacked, packedBytes
		blk.base, blk.width = lo, width
		codes := make([]uint64, n)
		for i, v := range vals {
			codes[i] = uint64(v.I - lo)
		}
		blk.words = packBits(codes, width)
	default:
		blk.raw = append([]types.Value(nil), vals...)
	}
	blk.min = types.Value{K: kind, I: lo}
	blk.max = types.Value{K: kind, I: hi}
	blk.hasZone = true
	return blk
}

// vectorsOf turns rows into the column vectors ANALYZE would read them into.
func vectorsOf(rows []types.Row, ncols int) []types.Vector {
	vecs := types.NewVectors(make(types.Schema, ncols), len(rows))
	for _, r := range rows {
		types.AppendRow(vecs, r)
	}
	return vecs
}

func TestSnapshotFromVectorsMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	wide := make([]types.Row, 700)
	for i := range wide {
		wide[i] = types.Row{
			types.Int(int64(i%2) * math.MaxInt64),              // too wide to pack: raw boxed ints
			types.Bool(i%3 == 0),                               // packed at one bit
			types.Str("only"),                                  // dictionary of one, zero bits
			types.Float(float64(rng.Intn(50))),                 // integer-valued floats: decimal at e = 0
			[]types.Value{types.Int(1), types.Str("a")}[i%2],   // mixed kinds: raw boxed
			types.Value{K: types.KindDate, I: int64(i / 100)},  // rle dates
			[]types.Value{types.Null(), types.Float(2.5)}[i%2], // leading NULL: raw boxed
		}
	}
	short := []types.Row{{types.Int(1), types.Str("x")}, {types.Int(2)}, {types.Int(3), types.Str("y")}}
	allNull := []types.Row{{types.Null()}, {types.Null()}, {types.Null()}}
	cases := []struct {
		name      string
		rows      []types.Row
		ncols     int
		blockSize int
	}{
		{"every encoding", colTestRows(1000, rng), 6, 128},
		{"every encoding, one block", colTestRows(1000, rng), 6, 0},
		{"block boundary", colTestRows(256, rng), 6, 128},
		{"edges", wide, 7, 64},
		{"decimal edges", decimalTestRows(false), 1, decimalBlock},
		{"decimal edges, two cases a block", decimalTestRows(false), 1, 2 * decimalBlock},
		{"short rows", short, 2, 2},
		{"all NULL", allNull, 1, 2},
		{"empty", nil, 3, 16},
		{"no columns", nil, 0, 16},
	}
	for _, tc := range cases {
		got := BuildColumnStore(vectorsOf(tc.rows, tc.ncols), tc.blockSize, HeapMark{})
		want := referenceColumnStore(tc.rows, tc.ncols, tc.blockSize)
		if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() || got.NumBlocks() != want.NumBlocks() ||
			got.BlockSize() != want.BlockSize() || got.EncodedBytes() != want.EncodedBytes() || got.pageBytes != want.pageBytes {
			t.Fatalf("%s: shape or size differs: %d rows x %d cols, %d blocks of %d, %d bytes; want %d x %d, %d of %d, %d",
				tc.name, got.NumRows(), got.NumCols(), got.NumBlocks(), got.BlockSize(), got.EncodedBytes(),
				want.NumRows(), want.NumCols(), want.NumBlocks(), want.BlockSize(), want.EncodedBytes())
		}
		g := make([]types.Value, got.BlockSize())
		for col := 0; col < got.NumCols(); col++ {
			gc, wc := &got.cols[col], &want.cols[col]
			if gc.kind != wc.kind || gc.bytes != wc.bytes || !reflect.DeepEqual(gc.dict, wc.dict) || len(gc.blocks) != len(wc.blocks) {
				t.Fatalf("%s col %d: kind %v, %d bytes, dict %v, %d blocks; want %v, %d, %v, %d",
					tc.name, col, gc.kind, gc.bytes, gc.dict, len(gc.blocks), wc.kind, wc.bytes, wc.dict, len(wc.blocks))
			}
			for b := range gc.blocks {
				gb, wb := gc.blocks[b], wc.blocks[b]
				nb := got.BlockRows(b)
				got.Decode(col, b, g[:nb])
				for i, r := range tc.rows[b*got.BlockSize():][:nb] {
					stored := types.Null()
					if col < len(r) {
						stored = r[col]
					}
					if !sameBits(g[i], stored) {
						t.Fatalf("%s col %d block %d row %d: decodes to %v, stored %v", tc.name, col, b, i, g[i], stored)
					}
				}
				if got.PageSpan(col, b) != want.PageSpan(col, b) {
					t.Fatalf("%s col %d block %d: page span %d, want %d", tc.name, col, b, got.PageSpan(col, b), want.PageSpan(col, b))
				}
				if !sameBits(gb.min, wb.min) || !sameBits(gb.max, wb.max) {
					t.Fatalf("%s col %d block %d: zone [%v, %v], want [%v, %v]", tc.name, col, b, gb.min, gb.max, wb.min, wb.max)
				}
				// Raw payloads were compared through Decode: a float block
				// holds []float64 where the reference boxes. Zones were
				// compared by bits, which DeepEqual does not do for NaN.
				gb.raw, gb.floats, wb.raw = nil, nil, nil
				gb.min, gb.max, wb.min, wb.max = types.Value{}, types.Value{}, types.Value{}, types.Value{}
				if !reflect.DeepEqual(gb, wb) {
					t.Fatalf("%s col %d block %d: block %+v, want %+v", tc.name, col, b, gb, wb)
				}
			}
		}
	}
}

// sameBits reports whether a and b are the same value down to a float's bits.
func sameBits(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestRawFloatBlocksHoldFloats: a float column's raw blocks keep 8 bytes a
// value, slices of the vector the snapshot was built from, not a boxed copy;
// a decimal column's blocks hold neither, so the snapshot does not keep its
// vector alive.
func TestRawFloatBlocksHoldFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	rows := colTestRows(300, rng)
	for _, r := range rows {
		r[1] = types.Float(float64(rng.Intn(100000)) / 10) // a price: decimal
	}
	vecs := vectorsOf(rows, 6)
	cs := BuildColumnStore(vecs, 128, HeapMark{})
	for b, blk := range cs.cols[4].blocks {
		if blk.raw != nil || len(blk.floats) != cs.BlockRows(b) || &blk.floats[0] != &vecs[4].Floats[b*128] {
			t.Fatalf("float block %d: %d boxed values, %d floats, want none boxed and a slice of the vector", b, len(blk.raw), len(blk.floats))
		}
	}
	for b, blk := range cs.cols[1].blocks {
		if blk.raw != nil || blk.floats != nil || blk.enc == encRaw {
			t.Fatalf("decimal block %d: %v, %d boxed values, %d floats; want it encoded and no value kept", b, blk.enc, len(blk.raw), len(blk.floats))
		}
	}
	for b, blk := range cs.cols[5].blocks {
		if blk.floats != nil || len(blk.raw) != cs.BlockRows(b) {
			t.Fatalf("NULL-bearing block %d must stay boxed", b)
		}
	}
}
