package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rqp/internal/types"
)

// colTestRows builds a table exercising every encoding path: packed unique
// ints, clustered low-cardinality ints (rle), low-cardinality strings
// (dict), dates, floats (raw), and an int column with NULLs (raw).
func colTestRows(n int, rng *rand.Rand) []types.Row {
	rows := make([]types.Row, n)
	for i := 0; i < n; i++ {
		nullable := types.Int(rng.Int63n(50))
		if rng.Intn(7) == 0 {
			nullable = types.Null()
		}
		rows[i] = types.Row{
			types.Int(int64(i)),                       // packed
			types.Int(int64(i*16/n) * 1000000),        // rle: few wide-valued runs, so packing loses
			types.Str(fmt.Sprintf("s%03d", i*16/n)),   // dict
			types.Date(int64(7000 + rng.Int63n(100))), // packed dates
			types.Float(rng.Float64() * 100),          // raw (floats)
			nullable,                                  // raw (NULLs present)
		}
	}
	return rows
}

func TestColumnStoreDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})

	if cs.NumRows() != len(rows) || cs.NumCols() != len(rows[0]) {
		t.Fatalf("shape %dx%d, want %dx%d", cs.NumRows(), cs.NumCols(), len(rows), len(rows[0]))
	}
	dst := make([]types.Value, cs.BlockSize())
	for col := 0; col < cs.NumCols(); col++ {
		row := 0
		for b := 0; b < cs.NumBlocks(); b++ {
			cs.Decode(col, b, dst[:cs.BlockRows(b)])
			for i := 0; i < cs.BlockRows(b); i++ {
				want := rows[row][col]
				got := dst[i]
				if want.IsNull() != got.IsNull() ||
					(!want.IsNull() && (want.K != got.K || types.Compare(want, got) != 0 || want.String() != got.String())) {
					t.Fatalf("col %d row %d: decoded %v, want %v", col, row, got, want)
				}
				row++
			}
		}
		if row != len(rows) {
			t.Fatalf("col %d decoded %d rows, want %d", col, row, len(rows))
		}
	}
}

func TestColumnStoreEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})
	want := []string{"packed", "rle", "dict", "packed", "raw", "raw"}
	for col, w := range want {
		if got := cs.ColEncoding(col); got != w {
			t.Errorf("col %d encoding %q, want %q", col, got, w)
		}
	}
	if cs.EncodedBytes() >= cs.RawBytes() {
		t.Fatalf("no compression: encoded %d >= raw %d bytes", cs.EncodedBytes(), cs.RawBytes())
	}
}

// TestEvalBlockMatchesDecode is the encoded-predicate correctness
// property: evaluating col op const directly on encoded blocks must agree
// with decoding and comparing row by row, for every op, every encoding,
// and NULL handling (NULL compares to false). Rows already dropped stay
// dropped and are not tested: the work reported is the block's run count
// when it is RLE and the rows still kept otherwise, and DecodeKept writes
// only the kept positions.
func TestEvalBlockMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})

	consts := [][]types.Value{
		{types.Int(300), types.Int(0), types.Int(999), types.Int(-5), types.Int(2000)},
		{types.Int(7000000), types.Int(0), types.Int(15000000), types.Int(7500000)},
		{types.Str("s007"), types.Str("s000"), types.Str("a"), types.Str("zz"), types.Str("s0075"), types.Int(3)},
		{types.Date(7050), types.Date(6000)},
		{types.Float(50), types.Float(-1)},
		{types.Int(25), types.Int(-1)},
	}
	before := make([]bool, cs.BlockSize())
	for col := 0; col < cs.NumCols(); col++ {
		for _, v := range consts[col] {
			for _, op := range allOps {
				for b := 0; b < cs.NumBlocks(); b++ {
					for i := range before {
						before[i] = rng.Intn(3) > 0
					}
					if err := evalMatchesDecode(cs, col, b, op, v, before); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

var allOps = []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}

// evalMatchesDecode runs EvalBlock(col, b, op, v) over the rows before keeps
// and checks it against decoding block b and comparing row by row (a NULL
// compares false): the rows it keeps; the work it reports, the block's runs
// when it is RLE and the rows it tested otherwise; and DecodeKept writing
// exactly the kept rows, each to the bits Decode gives.
func evalMatchesDecode(cs *ColumnStore, col, b int, op CmpOp, v types.Value, before []bool) error {
	nb := cs.BlockRows(b)
	keep := slices.Clone(before[:nb])
	units, alive := cs.EvalBlock(col, b, op, v, keep)
	dst, kept := make([]types.Value, nb), make([]types.Value, nb)
	cs.Decode(col, b, dst)
	for i := range kept {
		kept[i] = types.Str("untouched")
	}
	cs.DecodeKept(col, b, keep, kept)
	tested, runs, nkept := 0, 1, 0
	for i := 0; i < nb; i++ {
		if before[i] {
			tested++
		}
		if i > 0 && !sameBits(dst[i], dst[i-1]) {
			runs++
		}
		want := false
		if !dst[i].IsNull() {
			c := types.Compare(dst[i], v)
			want = []bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[op]
		}
		if want = want && before[i]; keep[i] != want {
			return fmt.Errorf("col %d block %d row %d: %v %v %v (kept before: %v) -> keep=%v, want %v",
				col, b, i, dst[i], op, v, before[i], keep[i], want)
		}
		switch {
		case keep[i]:
			nkept++
			if !sameBits(kept[i], dst[i]) {
				return fmt.Errorf("col %d block %d row %d: DecodeKept wrote %v, Decode %v", col, b, i, kept[i], dst[i])
			}
		case kept[i].S != "untouched":
			return fmt.Errorf("col %d block %d row %d: DecodeKept wrote %v at a dropped row", col, b, i, kept[i])
		}
	}
	blk := &cs.cols[col].blocks[b]
	if blk.enc == encRLE {
		tested = runs
	}
	if units != tested || alive != nkept {
		return fmt.Errorf("col %d block %d (%v) %v %v: units %d, alive %d; want %d, %d",
			col, b, blk.enc, op, v, units, alive, tested, nkept)
	}
	return nil
}

// TestZoneShare: on a block of consecutive integers the share a range
// admits is exactly the share of its rows that pass; on every column it lies
// in [0, 1], falls as `<` tightens and rises as `>=` loosens.
func TestZoneShare(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})
	for b := 0; b < cs.NumBlocks(); b++ {
		lo, nb := int64(b*128), cs.BlockRows(b)
		for _, tc := range []struct {
			op   CmpOp
			v    types.Value
			want int // rows of the block that pass
		}{
			{CmpLT, types.Int(lo + 10), 10},
			{CmpLE, types.Int(lo + 10), 11},
			{CmpGT, types.Int(lo + 10), nb - 11},
			{CmpGE, types.Int(lo + 10), nb - 10},
			{CmpLT, types.Float(float64(lo) + 10.5), 11},
			{CmpGE, types.Float(float64(lo) + 10.5), nb - 11},
			{CmpEQ, types.Int(lo + 3), 1},
			{CmpNE, types.Int(lo + 3), nb - 1},
			{CmpEQ, types.Float(float64(lo) + 3.5), 0},
			{CmpNE, types.Int(lo - 1), nb},
		} {
			if got := cs.ZoneShare(0, b, tc.op, tc.v); got != float64(tc.want)/float64(nb) {
				t.Errorf("block %d: %v %v admits %v of the zone, want %d/%d", b, tc.op, tc.v, got, tc.want, nb)
			}
		}
	}
	probes := [][]types.Value{
		{types.Int(100), types.Int(500), types.Int(900)},
		{types.Int(2000000), types.Int(8000000), types.Int(14000000)},
		{types.Str("s002"), types.Str("s0075"), types.Str("s013")},
		{types.Date(7020), types.Date(7050), types.Date(7080)},
		{types.Float(20), types.Float(50), types.Float(80)},
		{types.Int(10), types.Int(25), types.Int(40)},
	}
	for col, vs := range probes {
		for b := 0; b < cs.NumBlocks(); b++ {
			prevLT, prevGE := -1.0, 2.0
			for _, v := range vs {
				lt, ge := cs.ZoneShare(col, b, CmpLT, v), cs.ZoneShare(col, b, CmpGE, v)
				if lt < 0 || lt > 1 || ge < 0 || ge > 1 || lt < prevLT || ge > prevGE {
					t.Fatalf("col %d block %d: < %v admits %v, >= admits %v (after %v, %v)", col, b, v, lt, ge, prevLT, prevGE)
				}
				prevLT, prevGE = lt, ge
			}
		}
	}
}

// TestZonePruneNeverSkipsMatches: a block ZonePrune eliminates must
// contain zero rows satisfying the predicate — false positives in the
// zone map would silently drop result rows.
func TestZonePruneNeverSkipsMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})
	dst := make([]types.Value, cs.BlockSize())
	keep := make([]bool, cs.BlockSize())
	pruned := 0
	for col := 0; col < cs.NumCols(); col++ {
		for trial := 0; trial < 60; trial++ {
			var v types.Value
			switch col {
			case 2:
				v = types.Str(fmt.Sprintf("s%03d", rng.Intn(20)))
			case 4:
				v = types.Float(rng.Float64() * 100)
			default:
				v = types.Int(rng.Int63n(1100))
			}
			op := allOps[trial%len(allOps)]
			for b := 0; b < cs.NumBlocks(); b++ {
				if !cs.ZonePrune(col, b, op, v) {
					continue
				}
				pruned++
				nb := cs.BlockRows(b)
				for i := 0; i < nb; i++ {
					keep[i] = true
				}
				cs.EvalBlock(col, b, op, v, keep[:nb])
				cs.Decode(col, b, dst[:nb])
				for i := 0; i < nb; i++ {
					if keep[i] {
						t.Fatalf("col %d block %d pruned for %v %v but row %d (%v) matches",
							col, b, op, v, i, dst[i])
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("zone maps never pruned a block; test is vacuous")
	}
}

// TestPageSpanTelescopes: per-block page spans must sum exactly to the
// column's page count, and TotalPages must agree with the per-column sum —
// the no-double-charging invariant behind cost parity.
func TestPageSpanTelescopes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := colTestRows(1000, rng)
	cs := BuildColumnStore(vectorsOf(rows, len(rows[0])), 128, HeapMark{})
	total := 0
	for col := 0; col < cs.NumCols(); col++ {
		sum := 0
		for b := 0; b < cs.NumBlocks(); b++ {
			sum += cs.PageSpan(col, b)
		}
		if sum != cs.ColPages(col) {
			t.Fatalf("col %d spans sum to %d, ColPages %d", col, sum, cs.ColPages(col))
		}
		total += sum
	}
	if got := cs.TotalPages(nil); got != total {
		t.Fatalf("TotalPages(nil) = %d, per-column sum %d", got, total)
	}
	if got := cs.TotalPages([]int{0, 2}); got != cs.ColPages(0)+cs.ColPages(2) {
		t.Fatalf("TotalPages([0 2]) = %d, want %d", got, cs.ColPages(0)+cs.ColPages(2))
	}
}

func TestBitPackRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, width := range []int{1, 3, 7, 10, 33, 64} {
		n := 257
		codes := make([]uint64, n)
		for i := range codes {
			if width == 64 {
				codes[i] = rng.Uint64()
			} else {
				codes[i] = rng.Uint64() & ((1 << width) - 1)
			}
		}
		words := packBits(codes, width)
		for i, want := range codes {
			if got := unpackBits(words, width, i); got != want {
				t.Fatalf("width %d index %d: %d != %d", width, i, got, want)
			}
		}
	}
}
