package storage

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"rqp/internal/types"
)

// Column-major table storage. A ColumnStore is a read-optimized snapshot of
// a heap: values are split per column into fixed-size blocks (~4K values),
// each block carries a min/max zone map, and each column picks the cheapest
// of several encodings — a global sorted dictionary with bit-packed codes
// for strings (code order equals string order, so string comparisons become
// integer comparisons), run-length encoding or offset bit-packing for
// integer-like columns, and raw values as the universal fallback (columns
// with NULLs or mixed kinds stay raw so the encoded evaluation paths never
// see a NULL). A float block whose every value v is k/10^e bit for bit, for
// one e <= maxDecimalExp and |k| < 2^53, is *decimal*: it stores the k under
// the integer encodings and decodes k/10^e, so -0, NaN, ±Inf and 0.1+0.2
// keep their block raw.
//
// The simulated pager charges sequential reads against the *encoded* byte
// size: each column records cumulative byte offsets, and a block's page span
// is ceil(end/P) − ceil(start/P) with P = PageRows·8·ncols (the same bytes
// per page the row heap implies at 8 bytes per value). The spans telescope,
// so the per-column total is exactly ceil(colBytes/P) — no block boundary is
// double-charged, and a fully scanned column costs the same whether it is
// read block-by-block or end-to-end.

// DefaultColBlock is the standard number of values per column block.
const DefaultColBlock = 4096

// CmpOp is a comparison operator for zone pruning and encoded evaluation.
// The executor maps expression operators onto these so the storage layer
// stays independent of the expression package.
type CmpOp uint8

// Comparison operators, mirroring SQL =, <>, <, <=, >, >=.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

// cmpTruth returns the operator's truth function over a three-way compare.
func cmpTruth(op CmpOp) func(int) bool {
	switch op {
	case CmpEQ:
		return func(c int) bool { return c == 0 }
	case CmpNE:
		return func(c int) bool { return c != 0 }
	case CmpLT:
		return func(c int) bool { return c < 0 }
	case CmpLE:
		return func(c int) bool { return c <= 0 }
	case CmpGT:
		return func(c int) bool { return c > 0 }
	default: // CmpGE
		return func(c int) bool { return c >= 0 }
	}
}

// blockEnc tags one block's physical encoding.
type blockEnc uint8

const (
	encRaw blockEnc = iota
	encDict
	encRLE
	encPacked
)

func (e blockEnc) String() string {
	switch e {
	case encDict:
		return "dict"
	case encRLE:
		return "rle"
	case encPacked:
		return "packed"
	}
	return "raw"
}

// colBlock is one column's slice of blockSize values.
type colBlock struct {
	rows int
	enc  blockEnc

	hasZone  bool // false when every value in the block is NULL
	min, max types.Value

	raw    []types.Value // encRaw: a column with a NULL or of mixed kinds, ints too wide to pack
	floats []float64     // encRaw: a float block that is not decimal, a slice of the vector
	words  []uint64      // encDict / encPacked bit-packed payload
	base   int64         // encPacked offset base
	width  int           // encDict / encPacked bits per value
	runVal []int64       // encRLE run values
	runLen []int32       // encRLE run lengths
	exp    uint8         // encRLE / encPacked of a float column (decimal): a value is k/10^exp

	startByte int64 // cumulative encoded offset within the column
	bytes     int64 // encoded size of this block
}

// column is one column's full encoded representation.
type column struct {
	kind   types.Kind // uniform value kind for encoded and float columns
	dict   []string   // sorted unique values, dictionary columns only
	blocks []colBlock
	bytes  int64 // total encoded bytes
}

// value boxes an integer payload of blk: k/10^exp on a float column's
// (decimal) blocks, the column kind's integer otherwise.
func (c *column) value(blk *colBlock, k int64) types.Value {
	if c.kind == types.KindFloat {
		return types.Float(float64(k) / pow10[blk.exp])
	}
	return types.Value{K: c.kind, I: k}
}

// maxDecimalExp is the largest e a float block is tried at as k/10^e.
const maxDecimalExp = 6

// pow10 is 10^e for e <= maxDecimalExp, each exact as a float64.
var pow10 = [maxDecimalExp + 1]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// ColumnStore is a column-major, compressed, zone-mapped snapshot of a
// table. It is immutable after construction and safe for concurrent reads.
type ColumnStore struct {
	cols      []column
	rows      int
	blockSize int
	pageBytes int64    // bytes per simulated page: PageRows·8·ncols
	mark      HeapMark // the heap the vectors were read from, as it stood
}

// BuildColumnStore encodes a table's columns into a column store with the
// given block size (DefaultColBlock when <= 0). mark is the heap the vectors
// were read from (Heap.ScanMarked), which a scan asks what has changed since.
// A block stored raw is a slice of its vector, so the vectors must not change
// afterwards.
func BuildColumnStore(vecs []types.Vector, blockSize int, mark HeapMark) *ColumnStore {
	sc := takeScratch()
	defer sc.release()
	if blockSize <= 0 {
		blockSize = DefaultColBlock
	}
	cs := &ColumnStore{
		cols:      make([]column, len(vecs)),
		blockSize: blockSize,
		pageBytes: int64(PageRows) * 8 * int64(len(vecs)),
		mark:      mark,
	}
	if len(vecs) == 0 {
		cs.pageBytes = int64(PageRows) * 8
		return cs
	}
	cs.rows = vecs[0].Len()
	for c := range vecs {
		cs.cols[c] = sc.buildColumn(&vecs[c], blockSize)
	}
	return cs
}

// buildScratch is what a build reuses from block to block and from column to
// column: the codes of the block being packed, a decimal block's integers,
// the sorted copy a dictionary is read off. The codes and integers, a block
// long, are kept for the next build (spareScratch); the copy, a column long,
// is not.
type buildScratch struct {
	codes []uint64
	ints  []int64
	strs  []string
}

// spareScratch holds the last build's scratch for the next one: ANALYZE
// rebuilds a snapshot each time it runs. One slot, not a sync.Pool, which
// keeps what is put back on the P that put it and would miss it whenever
// the next ANALYZE runs on another.
var spareScratch atomic.Pointer[buildScratch]

// takeScratch returns the spare scratch, or a new one when another build has
// it.
func takeScratch() *buildScratch {
	if sc := spareScratch.Swap(nil); sc != nil {
		return sc
	}
	return new(buildScratch)
}

// release leaves sc as the spare, without its column-long copy.
func (sc *buildScratch) release() {
	sc.strs = nil
	spareScratch.Store(sc)
}

// buildColumn picks the column's class from its vector: dictionary for
// strings, the integer encodings for int/date/bool, decimal or raw blocks for
// floats, raw for a mixed vector (any NULL or second kind, so encoded blocks
// are NULL-free).
func (sc *buildScratch) buildColumn(v *types.Vector, blockSize int) column {
	col := column{kind: types.KindNull}
	switch v.Kind {
	case types.KindString:
		col.kind, col.dict = v.Kind, sc.buildDict(v.Strs)
	case types.KindInt, types.KindDate, types.KindBool, types.KindFloat:
		col.kind = v.Kind
	}
	n := v.Len()
	col.blocks = make([]colBlock, 0, (n+blockSize-1)/blockSize)
	var off int64
	for start := 0; start < n; start += blockSize {
		end := min(start+blockSize, n)
		var blk colBlock
		switch v.Kind {
		case types.KindNull:
			blk = colBlock{enc: encRaw, raw: v.Mixed[start:end]}
			blk.min, blk.max, blk.hasZone = zoneOf(blk.raw)
		case types.KindFloat:
			blk = sc.encodeFloats(v.Floats[start:end])
		case types.KindString:
			blk = sc.encodeDict(v.Strs[start:end], col.dict)
		default:
			blk = sc.encodeInts(v.Ints[start:end], v.Kind)
		}
		blk.rows = end - start
		if blk.enc == encRaw {
			blk.bytes = int64(blk.rows) * 8
		}
		blk.startByte = off
		off += blk.bytes
		col.blocks = append(col.blocks, blk)
	}
	col.bytes = off
	return col
}

// buildDict returns the sorted distinct values of vals.
func (sc *buildScratch) buildDict(vals []string) []string {
	sc.strs = append(sc.strs[:0], vals...)
	slices.Sort(sc.strs)
	return slices.Clone(slices.Compact(sc.strs))
}

// minMax returns the smallest and largest of vals, which is not empty.
func minMax[T cmp.Ordered](vals []T) (lo, hi T) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func zoneOf(vals []types.Value) (min, max types.Value, ok bool) {
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if !ok {
			min, max, ok = v, v, true
			continue
		}
		if types.Compare(v, min) < 0 {
			min = v
		}
		if types.Compare(v, max) > 0 {
			max = v
		}
	}
	return min, max, ok
}

// codesOf returns the scratch code slice sized for n values.
func (sc *buildScratch) codesOf(n int) []uint64 {
	if cap(sc.codes) < n {
		sc.codes = make([]uint64, n)
	}
	return sc.codes[:n]
}

func (sc *buildScratch) encodeDict(vals []string, dict []string) colBlock {
	width := bits.Len64(uint64(len(dict)) - 1)
	if len(dict) <= 1 {
		width = 0
	}
	codes := sc.codesOf(len(vals))
	for i, s := range vals {
		codes[i] = uint64(sort.SearchStrings(dict, s))
	}
	lo, hi := minMax(vals)
	return colBlock{
		enc:     encDict,
		width:   width,
		words:   packBits(codes, width),
		bytes:   int64(len(vals)*width+7) / 8,
		hasZone: true,
		min:     types.Str(lo),
		max:     types.Str(hi),
	}
}

// encodeFloats stores a float block as decimal — the k of its values k/10^e
// under the integer encodings — when decimal finds an e and the k do not
// come out raw; otherwise the block is a slice of vals. Its zone is the
// floats' either way.
func (sc *buildScratch) encodeFloats(vals []float64) colBlock {
	blk := colBlock{enc: encRaw, floats: vals}
	if ks, e, ok := sc.decimal(vals); ok {
		if dec, _, _ := sc.packInts(ks); dec.enc != encRaw {
			blk, blk.exp = dec, e
		}
	}
	lo, hi := minMax(vals)
	blk.hasZone, blk.min, blk.max = true, types.Float(lo), types.Float(hi)
	return blk
}

// decimal returns the smallest e <= maxDecimalExp at which every value v of
// vals is k/10^e bit for bit, k = round(v·10^e) with |k| < 2^53, and the k,
// in scratch. Comparing bits keeps -0 (k = 0 decodes +0), NaN and ±Inf out.
func (sc *buildScratch) decimal(vals []float64) (ks []int64, e uint8, ok bool) {
	if cap(sc.ints) < len(vals) {
		sc.ints = make([]int64, len(vals))
	}
	ks = sc.ints[:len(vals)]
next:
	for x, p := range pow10 {
		for i, v := range vals {
			r := math.Round(v * p)
			if !(math.Abs(r) < 1<<53) || math.Float64bits(float64(int64(r))/p) != math.Float64bits(v) {
				continue next
			}
			ks[i] = int64(r)
		}
		return ks, uint8(x), true
	}
	return nil, 0, false
}

// encodeInts picks the smallest of RLE, offset bit-packing and raw for one
// integer-like block.
func (sc *buildScratch) encodeInts(vals []int64, kind types.Kind) colBlock {
	blk, lo, hi := sc.packInts(vals)
	if blk.enc == encRaw {
		blk.raw = make([]types.Value, len(vals))
		for i, v := range vals {
			blk.raw[i] = types.Value{K: kind, I: v}
		}
	}
	blk.hasZone, blk.min, blk.max = true, types.Value{K: kind, I: lo}, types.Value{K: kind, I: hi}
	return blk
}

// packInts is encodeInts short of the zone and of a raw payload: an RLE or
// packed block when either is no larger than raw, an empty encRaw one
// otherwise, and the min and max of vals. RLE stores 16 bytes per run (value
// + length), packing stores an 8-byte base plus width bits per value.
func (sc *buildScratch) packInts(vals []int64) (blk colBlock, lo, hi int64) {
	n := len(vals)
	runs := 0
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			runs++
		}
	}
	lo, hi = minMax(vals)
	width := bits.Len64(uint64(hi - lo))
	rleBytes := int64(runs) * 16
	packedBytes := 8 + int64(n*width+7)/8

	switch {
	case rleBytes <= packedBytes && rleBytes <= int64(n)*8:
		blk.enc, blk.bytes = encRLE, rleBytes
		blk.runVal, blk.runLen = make([]int64, 0, runs), make([]int32, 0, runs)
		for i, v := range vals {
			if i == 0 || v != vals[i-1] {
				blk.runVal = append(blk.runVal, v)
				blk.runLen = append(blk.runLen, 1)
			} else {
				blk.runLen[len(blk.runLen)-1]++
			}
		}
	case packedBytes <= int64(n)*8:
		blk.enc, blk.bytes = encPacked, packedBytes
		blk.base, blk.width = lo, width
		codes := sc.codesOf(n)
		for i, v := range vals {
			codes[i] = uint64(v - lo)
		}
		blk.words = packBits(codes, width)
	}
	return blk, lo, hi
}

// packBits packs codes into width-bit fields in little-endian bit order.
func packBits(codes []uint64, width int) []uint64 {
	if width == 0 {
		return nil
	}
	words := make([]uint64, (len(codes)*width+63)/64)
	for i, c := range codes {
		pos := i * width
		w, off := pos/64, uint(pos%64)
		words[w] |= c << off
		if off+uint(width) > 64 {
			words[w+1] |= c >> (64 - off)
		}
	}
	return words
}

// unpackBit extracts the i-th width-bit field.
func unpackBits(words []uint64, width, i int) uint64 {
	if width == 0 {
		return 0
	}
	pos := i * width
	w, off := pos/64, uint(pos%64)
	v := words[w] >> off
	if off+uint(width) > 64 {
		v |= words[w+1] << (64 - off)
	}
	return v & (1<<uint(width) - 1)
}

// ---------- accessors ----------

// NumRows returns the snapshot's row count.
func (cs *ColumnStore) NumRows() int { return cs.rows }

// NumCols returns the column count.
func (cs *ColumnStore) NumCols() int { return len(cs.cols) }

// Mark returns the heap the snapshot was read from, as it stood then.
func (cs *ColumnStore) Mark() HeapMark { return cs.mark }

// BlockSize returns the values-per-block target.
func (cs *ColumnStore) BlockSize() int { return cs.blockSize }

// NumBlocks returns how many blocks each column is split into.
func (cs *ColumnStore) NumBlocks() int {
	if cs.rows == 0 {
		return 0
	}
	return (cs.rows + cs.blockSize - 1) / cs.blockSize
}

// BlockRows returns the number of values in block b.
func (cs *ColumnStore) BlockRows(b int) int {
	start := b * cs.blockSize
	n := cs.rows - start
	if n > cs.blockSize {
		n = cs.blockSize
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Zone returns block b's min/max over column col. ok is false when the block
// holds only NULLs (no comparison predicate can match such a block).
func (cs *ColumnStore) Zone(col, b int) (min, max types.Value, ok bool) {
	blk := &cs.cols[col].blocks[b]
	return blk.min, blk.max, blk.hasZone
}

// PageSpan returns the simulated pages charged to read block b of column
// col. Spans are derived from cumulative encoded offsets, so they telescope:
// the sum over all blocks equals ceil(colBytes/pageBytes) exactly.
func (cs *ColumnStore) PageSpan(col, b int) int {
	blk := &cs.cols[col].blocks[b]
	p := cs.pageBytes
	return int((blk.startByte+blk.bytes+p-1)/p - (blk.startByte+p-1)/p)
}

// ColPages returns the total encoded pages of one column.
func (cs *ColumnStore) ColPages(col int) int {
	return int((cs.cols[col].bytes + cs.pageBytes - 1) / cs.pageBytes)
}

// TotalPages sums encoded pages over the given columns (all when nil).
func (cs *ColumnStore) TotalPages(cols []int) int {
	total := 0
	if cols == nil {
		for c := range cs.cols {
			total += cs.ColPages(c)
		}
		return total
	}
	for _, c := range cols {
		total += cs.ColPages(c)
	}
	return total
}

// EncodedBytes returns the store's total encoded size.
func (cs *ColumnStore) EncodedBytes() int64 {
	var n int64
	for i := range cs.cols {
		n += cs.cols[i].bytes
	}
	return n
}

// RawBytes returns the uncompressed size at the heap's 8 bytes per value.
func (cs *ColumnStore) RawBytes() int64 {
	return int64(cs.rows) * int64(len(cs.cols)) * 8
}

// ColEncoding names column col's encoding: "decimal" when every block is a
// float block stored as integers, the uniform block encoding when all blocks
// agree ("dict", "rle", "packed", "raw"), "mixed" otherwise.
func (cs *ColumnStore) ColEncoding(col int) string {
	c := &cs.cols[col]
	name := "raw"
	for i := range c.blocks {
		n := c.blocks[i].enc.String()
		if c.kind == types.KindFloat && c.blocks[i].enc != encRaw {
			n = "decimal"
		}
		if i > 0 && n != name {
			return "mixed"
		}
		name = n
	}
	return name
}

// ZoneShare returns the share of block b's zone [min, max] over column col
// that `col op v` admits, in [0, 1]: linear in the value on numeric columns
// (counting the integers in the zone on int and date columns), in the
// dictionary code on string columns, and 1 where the zone cannot say (a bool
// column, a constant of another kind). A scan tests a block's conjuncts in
// ascending share, so this depends on nothing but the block and v.
func (cs *ColumnStore) ZoneShare(col, b int, op CmpOp, v types.Value) float64 {
	c := &cs.cols[col]
	blk := &c.blocks[b]
	lo, hi := blk.min, blk.max
	switch {
	case !blk.hasZone:
		return 0
	case blk.enc == encDict && v.K == types.KindString:
		code := func(s string) float64 { return float64(sort.SearchStrings(c.dict, s)) }
		x := code(v.S)
		if int(x) == len(c.dict) || c.dict[int(x)] != v.S {
			x -= 0.5 // between two codes
		}
		return share(op, code(lo.S), code(hi.S), x, true)
	case lo.Numeric() && v.Numeric():
		discrete := lo.K != types.KindFloat
		return share(op, lo.AsFloat(), hi.AsFloat(), v.AsFloat(), discrete)
	}
	return 1
}

// share is the part of [lo, hi] where `y op x` holds for y in it — of its
// integers when discrete — clamped to [0, 1].
func share(op CmpOp, lo, hi, x float64, discrete bool) float64 {
	var n, width float64
	if discrete {
		width = hi - lo + 1
		switch op {
		case CmpEQ, CmpNE:
			if x == math.Floor(x) && lo <= x && x <= hi {
				n = 1
			}
			if op == CmpNE {
				n = width - n
			}
		case CmpLT:
			n = math.Ceil(x) - lo
		case CmpLE:
			n = math.Floor(x) - lo + 1
		case CmpGT:
			n = hi - math.Floor(x)
		default: // CmpGE
			n = hi - math.Ceil(x) + 1
		}
	} else {
		width = hi - lo
		switch op {
		case CmpEQ:
			n = 0
		case CmpNE:
			n = width
		case CmpLT, CmpLE:
			n = x - lo
		default: // CmpGT, CmpGE
			n = hi - x
		}
	}
	if width <= 0 {
		return 1
	}
	return max(0, min(1, n/width))
}

// ZonePrune reports whether `col op v` can match no row of block b, using
// only the block's zone map. v must be non-NULL. An all-NULL block prunes
// under every comparison (NULL ⋈ v is never true).
func (cs *ColumnStore) ZonePrune(col, b int, op CmpOp, v types.Value) bool {
	blk := &cs.cols[col].blocks[b]
	if !blk.hasZone {
		return true
	}
	switch op {
	case CmpEQ:
		return types.Compare(v, blk.min) < 0 || types.Compare(v, blk.max) > 0
	case CmpNE:
		return types.Compare(blk.min, blk.max) == 0 && types.Compare(blk.min, v) == 0
	case CmpLT:
		return types.Compare(blk.min, v) >= 0
	case CmpLE:
		return types.Compare(blk.min, v) > 0
	case CmpGT:
		return types.Compare(blk.max, v) <= 0
	default: // CmpGE
		return types.Compare(blk.max, v) < 0
	}
}

// EvalBlock narrows keep (len ≥ BlockRows(b)) by `col op v` evaluated
// directly on block b's encoded form, testing only the rows keep still holds:
// dictionary codes compare as integers (the dictionary is sorted, so code
// order is string order), RLE evaluates once per run, bit-packed values
// decode to the column kind's integer payload (a decimal block's to the
// float k/10^e, compared as a raw float is). Semantics match the row
// interpreter exactly, with NULL collapsing to false. v must be non-NULL. It
// returns the work done — an RLE block's run count, else the rows it tested —
// and how many rows keep still holds.
func (cs *ColumnStore) EvalBlock(col, b int, op CmpOp, v types.Value, keep []bool) (units, alive int) {
	c := &cs.cols[col]
	blk := &c.blocks[b]
	keep = keep[:blk.rows]
	truth := cmpTruth(op)
	switch blk.enc {
	case encRLE:
		i := 0
		for r, rv := range blk.runVal {
			t := truth(types.Compare(c.value(blk, rv), v))
			for e := i + int(blk.runLen[r]); i < e; i++ {
				if keep[i] = keep[i] && t; keep[i] {
					alive++
				}
			}
		}
		return len(blk.runVal), alive
	case encDict:
		lo, hi, neg := dictRange(c.dict, op, v)
		return narrow(keep, func(i int) bool {
			code := unpackBits(blk.words, blk.width, i)
			return (lo <= code && code < hi) != neg
		})
	case encPacked:
		return narrow(keep, func(i int) bool {
			return truth(types.Compare(c.value(blk, blk.base+int64(unpackBits(blk.words, blk.width, i))), v))
		})
	}
	if blk.floats != nil {
		return narrow(keep, func(i int) bool { return truth(types.Compare(types.Float(blk.floats[i]), v)) })
	}
	return narrow(keep, func(i int) bool { return !blk.raw[i].IsNull() && truth(types.Compare(blk.raw[i], v)) })
}

// narrow clears keep[i] wherever test(i) fails, calling it only where keep
// holds, and returns how many rows it tested and how many keep still holds.
func narrow(keep []bool, test func(i int) bool) (tested, alive int) {
	for i, k := range keep {
		if !k {
			continue
		}
		tested++
		if keep[i] = test(i); keep[i] {
			alive++
		}
	}
	return tested, alive
}

// dictRange maps `col op v` on a dictionary column onto its codes: a row
// passes when lo <= code < hi, or outside that range when neg. The
// dictionary is sorted, so the range starts at v's lower bound and ends past
// v's own code when v is in the dictionary (an equality probe for a string
// absent from it matches nothing; inequality against it matches everything).
func dictRange(dict []string, op CmpOp, v types.Value) (lo, hi uint64, neg bool) {
	if v.K != types.KindString {
		// Cross-kind comparisons order by kind tag: one compare decides
		// every row.
		if cmpTruth(op)(types.Compare(types.Str(""), v)) {
			return 0, math.MaxUint64, false
		}
		return 0, 0, false
	}
	lb := uint64(sort.SearchStrings(dict, v.S))
	end := lb
	if lb < uint64(len(dict)) && dict[lb] == v.S {
		end++
	}
	switch op {
	case CmpEQ:
		return lb, end, false
	case CmpNE:
		return lb, end, true
	case CmpLT:
		return 0, lb, false
	case CmpLE:
		return 0, end, false
	case CmpGT:
		return end, math.MaxUint64, false
	default: // CmpGE
		return lb, math.MaxUint64, false
	}
}

// Decode materializes block b of column col into dst (which must have
// length ≥ BlockRows(b)), reconstructing values bit-identical to the heap's.
func (cs *ColumnStore) Decode(col, b int, dst []types.Value) { cs.DecodeKept(col, b, nil, dst) }

// DecodeKept is Decode at the positions keep holds — at every position when
// keep is nil — leaving dst elsewhere as it was.
func (cs *ColumnStore) DecodeKept(col, b int, keep []bool, dst []types.Value) {
	c := &cs.cols[col]
	blk := &c.blocks[b]
	at := func(i int) bool { return keep == nil || keep[i] }
	switch blk.enc {
	case encDict:
		for i := 0; i < blk.rows; i++ {
			if at(i) {
				dst[i] = types.Str(c.dict[unpackBits(blk.words, blk.width, i)])
			}
		}
	case encRLE:
		i := 0
		for r, rv := range blk.runVal {
			v := c.value(blk, rv)
			for e := i + int(blk.runLen[r]); i < e; i++ {
				if at(i) {
					dst[i] = v
				}
			}
		}
	case encPacked:
		for i := 0; i < blk.rows; i++ {
			if at(i) {
				dst[i] = c.value(blk, blk.base+int64(unpackBits(blk.words, blk.width, i)))
			}
		}
	default:
		for i, f := range blk.floats {
			if at(i) {
				dst[i] = types.Float(f)
			}
		}
		for i, rv := range blk.raw {
			if at(i) {
				dst[i] = rv
			}
		}
	}
}
