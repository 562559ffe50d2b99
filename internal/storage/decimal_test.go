package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rqp/internal/types"
)

// decimalBlock is the block size of the decimal cases: one case a block.
const decimalBlock = 8

// decimalCases are float blocks at the edges of the decimal rule, in the
// order they are stored, each with the exponent it must be stored at (-1:
// raw) and its encoding. Neighbours test that a block's e is its own: e = 2
// then e = 1, a raw block between two decimal ones. unlike marks the block
// the rule and the oracle read differently (reference_test.go): it holds a
// k/10^e, |k| < 2^53, that v·10^e does not round back to.
var decimalCases = []struct {
	name   string
	exp    int
	enc    blockEnc
	vals   [decimalBlock]float64
	unlike bool
}{
	{"discounts", 2, encPacked, [decimalBlock]float64{0.05, 0.07, 0, 0.1, 0.02, 0.09, 0.04, 0.06}, false},
	{"prices after e = 2", 1, encPacked, [decimalBlock]float64{12.5, 3.1, 7, 100.9, 0.1, 45.6, 99999.9, -3.3}, false},
	// 0.30000000000000004 is 0.1+0.2 evaluated in float64.
	{"0.1+0.2 between decimal blocks", -1, encRaw, [decimalBlock]float64{0.5, 0.30000000000000004, 2, 7.5, 1, 0.25, 3, 4}, false},
	{"runs after raw", 1, encRLE, [decimalBlock]float64{1e6 + 0.5, 1e6 + 0.5, 1e6 + 0.5, 1e6 + 0.5, -1e6 - 0.5, -1e6 - 0.5, -1e6 - 0.5, -1e6 - 0.5}, false},
	{"integer-valued", 0, encPacked, [decimalBlock]float64{1, 2, -4, 1e15, 0, 7, 3, 1e6}, false},
	{"2^53-1", 0, encPacked, [decimalBlock]float64{1<<53 - 1, 1<<53 - 2, 0, 1, 2, 3, 4, 5}, false},
	{"2^53", -1, encRaw, [decimalBlock]float64{1 << 53, 1<<53 + 2, 1 << 53, 1<<53 + 4, 1 << 53, 1 << 53, 1 << 53, 1 << 53}, false},
	{"(2^53-1)/10", 1, encPacked, [decimalBlock]float64{900719925474099.1, 900719925474098.9, 0, 0.1, 1, 2, 3, 4}, false},
	{"near 2^53/100", 2, encPacked, [decimalBlock]float64{90071992547409.89, 45035996273704.97, 0, 0.01, 1, 2, 3, 4}, false},
	// 45035996273704.95 is 4503599627370495/100, but v·100 rounds to
	// another k: the rule leaves such a block raw, still lossless.
	{"k/100 that v·100 misses", -1, encRaw, [decimalBlock]float64{45035996273704.95, 0, 0.01, 1, 2, 3, 4, 5}, true},
	{"-0", -1, encRaw, [decimalBlock]float64{0.5, math.Copysign(0, -1), 1, 2, 3, 4, 5, 6}, false},
	{"NaN", -1, encRaw, [decimalBlock]float64{1, 2, math.NaN(), 3, 4, 5, 6, 7}, false},
	{"±Inf", -1, encRaw, [decimalBlock]float64{1, math.Inf(1), 2, 3, math.Inf(-1), 4, 5, 6}, false},
	{"subnormals", -1, encRaw, [decimalBlock]float64{5e-324, 1e-310, 0, 0, 0, 0, 0, 0}, false},
	{"10^-6", 6, encPacked, [decimalBlock]float64{0.000001, 0.000002, 0.5, 1, 0.123456, 0, 0.25, 0.999999}, false},
	{"10^-7", -1, encRaw, [decimalBlock]float64{0.0000001, 0, 0, 0, 0, 0, 0, 0}, false},
}

// decimalTestRows is decimalCases as a one-column table, a case a block,
// without the unlike ones unless asked.
func decimalTestRows(unlike bool) []types.Row {
	var rows []types.Row
	for _, tc := range decimalCases {
		if tc.unlike && !unlike {
			continue
		}
		for _, v := range tc.vals {
			rows = append(rows, types.Row{types.Float(v)})
		}
	}
	return rows
}

// TestDecimalFloatBlocks: a float block is stored as the integers k of its
// values k/10^e at the smallest e that gives back every value's bits, raw
// otherwise, and each block finds its own e. Every value decodes to its
// bits, and EvalBlock agrees with decoding and comparing for every operator
// against float and integer constants, dead rows included.
func TestDecimalFloatBlocks(t *testing.T) {
	rows := decimalTestRows(true)
	cs := BuildColumnStore(vectorsOf(rows, 1), decimalBlock, HeapMark{})
	if got := cs.ColEncoding(0); got != "mixed" {
		t.Errorf("column encoding %q, want mixed", got)
	}
	rng := rand.New(rand.NewSource(31))
	before := make([]bool, decimalBlock)
	for b, tc := range decimalCases {
		blk := &cs.cols[0].blocks[b]
		exp := -1
		if blk.enc != encRaw {
			exp = int(blk.exp)
		}
		if exp != tc.exp || blk.enc != tc.enc || (blk.floats == nil) != (tc.exp >= 0) {
			t.Errorf("%s: stored %v at e = %d (%d floats kept), want %v at %d", tc.name, blk.enc, exp, len(blk.floats), tc.enc, tc.exp)
		}
		if lo, hi := minMax(tc.vals[:]); !sameBits(blk.min, types.Float(lo)) || !sameBits(blk.max, types.Float(hi)) {
			t.Errorf("%s: zone [%v, %v], want [%v, %v]", tc.name, blk.min, blk.max, lo, hi)
		}
		checkDecimalBlock(t, cs, b, tc.vals[:], rng, before)
	}

	decimal := BuildColumnStore(vectorsOf(rows[:2*decimalBlock], 1), decimalBlock, HeapMark{})
	if got := decimal.ColEncoding(0); got != "decimal" {
		t.Errorf("a column of decimal blocks is encoded %q, want decimal", got)
	}
}

// checkDecimalBlock checks that block b of cs's one column decodes to vals
// bit for bit and that EvalBlock matches decoding and comparing under every
// operator, against each value, its neighbours and its integer part, with
// about a third of the rows dropped beforehand.
func checkDecimalBlock(t testing.TB, cs *ColumnStore, b int, vals []float64, rng *rand.Rand, before []bool) {
	t.Helper()
	dst := make([]types.Value, len(vals))
	cs.Decode(0, b, dst)
	for i, v := range vals {
		if !sameBits(dst[i], types.Float(v)) {
			t.Fatalf("block %d row %d: decodes to %v (bits %x), stored %v (bits %x)",
				b, i, dst[i], math.Float64bits(dst[i].F), v, math.Float64bits(v))
		}
	}
	var consts []types.Value
	for _, v := range vals[:min(len(vals), 4)] {
		consts = append(consts, types.Float(v), types.Float(math.Nextafter(v, math.Inf(1))), types.Float(math.Nextafter(v, math.Inf(-1))))
		if math.Abs(v) < 1<<62 {
			consts = append(consts, types.Int(int64(v)))
		}
	}
	for _, c := range consts {
		for _, op := range allOps {
			for i := range before {
				before[i] = rng.Intn(3) > 0
			}
			if err := evalMatchesDecode(cs, 0, b, op, c, before); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzDecimalBlock builds a float column from fuzzed float64 bit patterns
// (little-endian, 8 bytes a value) in blocks of 1 to 16 values: every value
// must decode to its own bits, and EvalBlock must agree with decoding and
// comparing, decimal block or raw.
func FuzzDecimalBlock(f *testing.F) {
	for _, tc := range decimalCases {
		f.Add(uint8(decimalBlock), floatBytes(tc.vals[:]...))
	}
	f.Add(uint8(3), floatBytes(0.1, 0.1, 0.1, 0.2, 0.25, 1e6+0.5, math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, block uint8, data []byte) {
		vals := make([]float64, min(len(data)/8, 256))
		if len(vals) == 0 {
			return
		}
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		blockSize := int(block%16) + 1
		cs := BuildColumnStore([]types.Vector{{Kind: types.KindFloat, Floats: vals}}, blockSize, HeapMark{})
		rng := rand.New(rand.NewSource(int64(len(vals))))
		before := make([]bool, blockSize)
		for b := 0; b < cs.NumBlocks(); b++ {
			checkDecimalBlock(t, cs, b, vals[b*blockSize:][:cs.BlockRows(b)], rng, before)
		}
	})
}

// TestConcurrentBuilds: builds running at once take the spare scratch or
// make their own, and each store equals the one a build alone makes.
func TestConcurrentBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	rows := colTestRows(2000, rng)
	for _, r := range rows {
		r[5] = types.Float(float64(rng.Intn(100000)) / 100)
	}
	want := BuildColumnStore(vectorsOf(rows, 6), 128, HeapMark{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := BuildColumnStore(vectorsOf(rows, 6), 128, HeapMark{}); !reflect.DeepEqual(got.cols, want.cols) {
					t.Error("a concurrent build differs from a build alone")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// floatBytes is the fuzz encoding of vals.
func floatBytes(vals ...float64) []byte {
	data := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}
