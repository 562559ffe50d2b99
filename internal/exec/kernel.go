package exec

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// The join, aggregation and materialisation kernel: the one row arena every
// retainer copies through, the one hash table every hash join builds, the one
// probe loop every hash join runs and the one group table every aggregation
// accumulates into. Row, morsel and spill operators differ only in how they
// feed rows in and carry rows out.

// arenaMaxChunk caps an arena chunk (in values, ~160 KB).
const arenaMaxChunk = 4096

// RowArena carves rows out of chunked value slabs so that retaining a row
// costs a memcpy, not an allocation. A new chunk is as large as everything
// the arena already holds (capped at arenaMaxChunk), so a one-row result
// allocates exactly what Row.Clone did and a large one allocates once per
// few hundred rows. Exported for the wire decoders, which fill rows in
// place. Not safe for concurrent use; the zero value is ready.
type RowArena struct {
	chunk []types.Value // tail chunk: rows are carved off its spare capacity
	held  int           // values handed out so far
}

// fits reports whether the tail chunk has room for a row of n values.
func (a *RowArena) fits(n int) bool { return cap(a.chunk)-len(a.chunk) >= n }

// Alloc returns a row of n zero values for the caller to fill. Its capacity
// is clipped, so an append to it can never reach a neighbouring row.
func (a *RowArena) Alloc(n int) types.Row {
	if !a.fits(n) {
		a.chunk = make([]types.Value, 0, max(n, min(a.held, arenaMaxChunk)))
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	a.held += n
	return types.Row(a.chunk[off : off+n : off+n])
}

// Copy returns a stable copy of r.
func (a *RowArena) Copy(r types.Row) types.Row {
	out := a.Alloc(len(r))
	copy(out, r)
	return out
}

// RowSet retains rows of one width — a build side, a drained input, a
// result — in an arena of its own and cuts their index once, at its exact
// size, after the last row: they sit back to back in the arena's chunks, so
// no index is grown (and regrown, and copied) while they arrive. Exported,
// like the arena, for the wire client's result decoder.
type RowSet struct {
	arena RowArena
	n     int
	// The chunks the arena has left behind, in order. The first is kept
	// inline so that a result of a few rows pays for no list.
	first []types.Value
	full  [][]types.Value
}

// Alloc adds a row of n zero values for the caller to fill (every row of a
// set the same n; a row of none is still counted).
func (s *RowSet) Alloc(n int) types.Row {
	if !s.arena.fits(n) && len(s.arena.chunk) > 0 {
		if s.first == nil {
			s.first = s.arena.chunk
		} else {
			s.full = append(s.full, s.arena.chunk)
		}
	}
	s.n++
	return s.arena.Alloc(n)
}

// add copies r into the set. It is a RowSink (that never fails).
func (s *RowSet) add(r types.Row) error {
	copy(s.Alloc(len(r)), r)
	return nil
}

// Rows returns the set's rows in arrival order (nil for none).
func (s *RowSet) Rows() []types.Row {
	if s.n == 0 {
		return nil
	}
	rows := make([]types.Row, s.n) // zero-width rows: their count is all there is to them
	if w := s.arena.held / s.n; w > 0 {
		i := 0
		cut := func(chunk []types.Value) {
			for off := 0; off < len(chunk); off += w {
				rows[i] = chunk[off : off+w : off+w]
				i++
			}
		}
		cut(s.first)
		for _, c := range s.full {
			cut(c)
		}
		cut(s.arena.chunk)
	}
	return rows
}

// packedRows keeps rows of one width at nine bytes a value — a kind byte and
// an 8-byte word: an int's, date's or bool's payload, a float's bits, or a
// string's index in the slab beside (16 B more) — where a types.Value is 40
// and a row header 24. The tag sits on the value, so NULLs and columns of
// mixed kinds pack like any other. Rows come back boxed into a scratch row the
// caller owns: lent, like every other row. Chunks hold packedBase rows, then
// four times as many each up to packedMaxChunk bytes, then all as many: a few
// rows cost a few hundred bytes, a large store wastes at most one chunk, row i
// is found without a search. Reads are safe concurrently once adding has
// finished; the zero value is empty, and is not to be copied once in use.
type packedRows struct {
	w, n  int // values per row (the first row's), rows held
	top   int // chunks stop growing at packedBase<<(2*top) rows
	data  [][]byte
	strs  [][]string // the string slab, on the same ramp
	nstr  int
	data0 [4][]byte   // the lists' first backing arrays: on its ramp a store
	strs0 [4][]string // allocates none
}

const (
	packedValue    = 9  // bytes a value
	packedBase     = 16 // rows (or strings) in the first chunk
	packedMaxChunk = 64 << 10
	packedStrTop   = 3 // string chunks stop growing at 1024 strings (16 KB)
)

// chunkOf locates record i among chunks of chunkLen(k, top) records.
func chunkOf(i, top int) (k, off int) {
	if k = (bits.Len(uint(3*(i/packedBase)+1)) - 1) / 2; k < top {
		return k, i - packedBase*(1<<(2*k)-1)/3
	}
	i -= packedBase * (1<<(2*top) - 1) / 3
	return top + i/chunkLen(top, top), i % chunkLen(top, top)
}

func chunkLen(k, top int) int { return packedBase << (2 * min(k, top)) }

// add appends a copy of r. It is a RowSink (that never fails).
func (p *packedRows) add(r types.Row) error {
	if p.n == 0 {
		p.w, p.top, p.data, p.strs = len(r), 0, p.data0[:0], p.strs0[:0]
		for p.w > 0 && chunkLen(p.top+1, p.top+1)*p.w*packedValue <= packedMaxChunk {
			p.top++
		}
	}
	if p.w > 0 {
		k, off := chunkOf(p.n, p.top)
		if k == len(p.data) {
			p.data = append(p.data, make([]byte, chunkLen(k, p.top)*p.w*packedValue))
		}
		b := p.data[k][off*p.w*packedValue:]
		for i, v := range r {
			u := uint64(v.I)
			switch v.K {
			case types.KindFloat:
				u = math.Float64bits(v.F)
			case types.KindString:
				sk, soff := chunkOf(p.nstr, packedStrTop)
				if sk == len(p.strs) {
					p.strs = append(p.strs, make([]string, chunkLen(sk, packedStrTop)))
				}
				p.strs[sk][soff], u = v.S, uint64(p.nstr)
				p.nstr++
			}
			b[i*packedValue] = byte(v.K)
			binary.LittleEndian.PutUint64(b[i*packedValue+1:], u)
		}
	}
	p.n++
	return nil
}

// at returns row i as packed: w values of packedValue bytes.
func (p *packedRows) at(i int) []byte {
	if p.w == 0 {
		return nil
	}
	k, off := chunkOf(i, p.top)
	return p.data[k][off*p.w*packedValue : (off+1)*p.w*packedValue]
}

// unpack boxes the c'th value of a packed row.
func (p *packedRows) unpack(b []byte, c int) types.Value {
	k, u := types.Kind(b[c*packedValue]), binary.LittleEndian.Uint64(b[c*packedValue+1:])
	switch k {
	case types.KindNull:
		return types.Value{}
	case types.KindFloat:
		return types.Value{K: k, F: math.Float64frombits(u)}
	case types.KindString:
		sk, off := chunkOf(int(u), packedStrTop)
		return types.Value{K: k, S: p.strs[sk][off]}
	}
	return types.Value{K: k, I: int64(u)}
}

// value boxes one value of row i.
func (p *packedRows) value(i, c int) types.Value { return p.unpack(p.at(i), c) }

// row overwrites *buf with row i, boxed, and returns it.
func (p *packedRows) row(i int, buf *types.Row) types.Row { return p.unbox(p.at(i), buf) }

func (p *packedRows) unbox(b []byte, buf *types.Row) types.Row {
	if cap(*buf) < p.w {
		*buf = make(types.Row, p.w)
	}
	*buf = (*buf)[:p.w]
	for c := range *buf {
		(*buf)[c] = p.unpack(b, c)
	}
	return *buf
}

// keyInto is keyInto out of row i.
func (p *packedRows) keyInto(dst []types.Value, i int, cols []int) {
	b := p.at(i)
	for k, c := range cols {
		dst[k] = p.unpack(b, c)
	}
}

// match is keyMatches against row i, compared as packed — on the word itself
// where key and column are of one whole-number kind — and boxes into *buf
// only a row whose key columns equal key.
func (p *packedRows) match(key []types.Value, i int, cols []int, buf *types.Row) bool {
	b := p.at(i)
	for j, c := range cols {
		v, k := key[j], types.Kind(b[c*packedValue])
		if k == v.K && (k == types.KindInt || k == types.KindDate || k == types.KindBool) {
			if int64(binary.LittleEndian.Uint64(b[c*packedValue+1:])) != v.I {
				return false
			}
		} else if k == types.KindNull || !types.Equal(v, p.unpack(b, c)) {
			return false
		}
	}
	p.unbox(b, buf)
	return true
}

// concatInto overwrites buf with l‖r and returns it.
func concatInto(buf, l, r types.Row) types.Row {
	return append(append(buf[:0], l...), r...)
}

// joinRow assembles one join's output rows in a reused buffer (valid until
// the next call): l‖r, or the positions of it the node's Cols list. Keys and
// residual number l‖r, so a projecting join with a residual assembles that
// first; without one it gathers straight from its two inputs, and the columns
// it sheds are never copied.
type joinRow struct {
	node      *plan.JoinNode
	wide, out types.Row // l‖r; its Cols
}

func newJoinRow(node *plan.JoinNode) joinRow {
	j := joinRow{node: node, out: make(types.Row, 0, len(node.Cols))}
	if node.Cols == nil || node.Residual != nil {
		j.wide = make(types.Row, 0, len(node.Kids[0].Schema())+len(node.Kids[1].Schema()))
	}
	return j
}

// gather overwrites out with the node's Cols of l‖r; a nil r stands for the
// NULLs of an outer row.
func (j *joinRow) gather(l, r types.Row) types.Row {
	j.out = j.out[:0]
	for _, c := range j.node.Cols {
		switch {
		case c < len(l):
			j.out = append(j.out, l[c])
		case r != nil:
			j.out = append(j.out, r[c-len(l)])
		default:
			j.out = append(j.out, types.Null())
		}
	}
	return j.out
}

// match returns the output row of l joined with r if it passes the residual,
// charging clk per joinResidual.
func (j *joinRow) match(clk *storage.Clock, params []types.Value, l, r types.Row) (types.Row, bool, error) {
	n := j.node
	if n.Cols != nil && n.Residual == nil {
		clk.RowWork(1)
		return j.gather(l, r), true, nil
	}
	j.wide = concatInto(j.wide, l, r)
	if ok, err := joinResidual(clk, params, n.Residual, j.wide); err != nil || !ok {
		return nil, false, err
	}
	if n.Cols == nil {
		return j.wide, true, nil
	}
	j.out = appendCols(j.out[:0], j.wide, n.Cols)
	return j.out, true, nil
}

// outer returns the null-extended row of a probe row nothing matched.
func (j *joinRow) outer(l types.Row) types.Row {
	if j.node.Cols != nil {
		return j.gather(l, nil)
	}
	j.wide = padNulls(j.wide, l, len(j.node.Kids[1].Schema()))
	return j.wide
}

// hashIndex is a flat chained hash index over dense ids — a joinTable's build
// rows, an aggTable's groups: bucket head/tail pairs, a next link per id and
// the stored 64-bit key hashes. Ids chain at the tail, so the candidates of a
// hash come back in insertion order. Reads are safe concurrently once building
// has finished; the zero value is empty.
type hashIndex struct {
	hashes  []uint64
	next    []int32    // next id of the same bucket, -1 at the end
	buckets [][2]int32 // head, tail; -1 when empty
	shift   uint       // 64 - log2(len(buckets))
}

// noKey marks (in next) a bulk row whose key holds a NULL: it matches
// nothing and is never linked.
const noKey = -2

// resize sets the bucket array to the power of two at or above n (load
// factor at most one), emptied.
func (x *hashIndex) resize(n int) {
	size := 1
	if n > 1 {
		size = 1 << bits.Len(uint(n-1))
	}
	x.buckets = make([][2]int32, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	x.unlink()
}

func (x *hashIndex) unlink() {
	for i := range x.buckets {
		x.buckets[i] = [2]int32{-1, -1}
	}
}

// bucket spreads h by Fibonacci hashing (HashRow's low bits are only as good
// as the last value's).
func (x *hashIndex) bucket(h uint64) *[2]int32 {
	return &x.buckets[(h*0x9e3779b97f4a7c15)>>x.shift]
}

// link chains every hashed id in order.
func (x *hashIndex) link() {
	for i := range x.hashes {
		if x.next[i] != noKey {
			x.linkTail(int32(i))
		}
	}
}

func (x *hashIndex) linkTail(i int32) {
	x.next[i] = -1
	b := x.bucket(x.hashes[i])
	if b[1] >= 0 {
		x.next[b[1]] = i
	} else {
		b[0] = i
	}
	b[1] = i
}

// add appends an id with key hash h, growing the bucket array as needed.
func (x *hashIndex) add(h uint64) int32 {
	if len(x.hashes) == len(x.buckets) {
		x.resize(2 * len(x.hashes))
		x.link()
	}
	x.hashes = append(x.hashes, h)
	x.next = append(x.next, -1)
	i := int32(len(x.hashes) - 1)
	x.linkTail(i)
	return i
}

// first returns the first id whose stored hash is h, or -1; after continues
// from id i. Together they enumerate exactly the ids a map[hash][]id bucket
// would hold, in insertion order, without allocating.
func (x *hashIndex) first(h uint64) int32 {
	if len(x.buckets) == 0 {
		return -1
	}
	return x.seek(x.bucket(h)[0], h)
}

func (x *hashIndex) after(i int32, h uint64) int32 { return x.seek(x.next[i], h) }

func (x *hashIndex) seek(i int32, h uint64) int32 {
	for i >= 0 && x.hashes[i] != h {
		i = x.next[i]
	}
	return i
}

// joinTable is the one hash table of every hash join, and of DISTINCT: the
// build rows, which it owns, packed, indexed by position — a hash's candidates
// come back in build order, which keeps every join's output order independent
// of the layout. A bulk build keeps its rows as they are drained (rows.add),
// then hashes and links them; an incremental one adds row and hash at once.
type joinTable struct {
	rows packedRows
	hashIndex
}

// packRows returns a table holding copies of rows, yet to be indexed.
func packRows(rows []types.Row) *joinTable {
	t := &joinTable{}
	for _, r := range rows {
		t.rows.add(r)
	}
	return t
}

// reserve sizes the index for the rows kept: hashRange and link come next.
func (t *joinTable) reserve() {
	t.hashes, t.next = make([]uint64, t.rows.n), make([]int32, t.rows.n)
	t.resize(t.rows.n)
}

// hashRange hashes the key columns of rows [lo, hi) through key, the caller's
// scratch, charging clk probes hash probes per row (NULL keys included: the
// insert is charged before the key is looked at). Disjoint ranges may run
// concurrently. Returns how many of the rows carry a key.
func (t *joinTable) hashRange(lo, hi int, cols []int, key []types.Value, clk *storage.Clock, probes int) int {
	keyed := 0
	for i := lo; i < hi; i++ {
		clk.Probes(probes)
		if t.rows.keyInto(key, i, cols); keyHasNull(key) {
			t.next[i] = noKey
			continue
		}
		t.hashes[i] = types.HashRow(key)
		keyed++
	}
	return keyed
}

// index is the serial bulk build: hash and link the rows kept, on clk.
func (t *joinTable) index(cols []int, clk *storage.Clock, probes int) {
	t.reserve()
	t.hashRange(0, t.rows.n, cols, make([]types.Value, len(cols)), clk, probes)
	t.link()
}

// add appends one row with key hash h (the incremental build of the symmetric
// hash join, DISTINCT and a shard's joiner).
func (t *joinTable) add(r types.Row, h uint64) {
	t.rows.add(r)
	t.hashIndex.add(h)
}

// ---------- the aggregation table ----------

// aggNum accumulates a COUNT, SUM or AVG.
type aggNum struct {
	count int64
	sum   float64
}

// aggSlot places one aggregate of an AggNode in a group's accumulators.
type aggSlot struct {
	acc int  // which of the group's aggNums or, for MIN and MAX, of its extrema
	set int  // which of its dedup sets; -1 unless DISTINCT
	ext int8 // -1 MIN, +1 MAX, 0 otherwise
}

// aggLayout is what one group of an AggNode holds, fixed once from its
// AggSpecs: the key values, an aggNum per COUNT, SUM or AVG, one value per MIN
// or MAX (NULL until an input arrives) and a dedup set per DISTINCT aggregate.
type aggLayout struct {
	node             *plan.AggNode
	keyW             int
	slots            []aggSlot
	nums, exts, sets int
}

var aggExt = map[string]int8{"MIN": -1, "MAX": 1}

func newAggLayout(node *plan.AggNode) *aggLayout {
	l := &aggLayout{node: node, keyW: len(node.GroupExprs), slots: make([]aggSlot, len(node.Aggs))}
	for i, spec := range node.Aggs {
		sl := aggSlot{acc: l.nums, set: -1, ext: aggExt[spec.Func]}
		if sl.ext != 0 {
			sl.acc = l.exts
			l.exts++
		} else {
			l.nums++
		}
		if spec.Distinct && !spec.Star {
			sl.set = l.sets
			l.sets++
		}
		l.slots[i] = sl
	}
	return l
}

// aggSeg holds groups back to back: group i's key at keys[i*keyW:], its
// accumulators at the same stride in nums, exts and sets.
type aggSeg struct {
	n      int
	keys   []types.Value
	nums   []aggNum
	exts   []types.Value
	sets   []map[uint64][]types.Value
	hashes []uint64 // the groups' key hashes, once compacted (a table's index holds its own)
}

// newSeg returns an empty segment with room for n groups.
func (l *aggLayout) newSeg(n int) aggSeg {
	return aggSeg{
		keys: make([]types.Value, 0, n*l.keyW),
		nums: make([]aggNum, 0, n*l.nums),
		exts: make([]types.Value, 0, n*l.exts),
		sets: make([]map[uint64][]types.Value, 0, n*l.sets),
	}
}

// empty forgets the segment's groups, keeping what it allocated.
func (s *aggSeg) empty() {
	s.n, s.keys, s.nums, s.exts, s.sets = 0, s.keys[:0], s.nums[:0], s.exts[:0], s.sets[:0]
}

// push appends a group with zero accumulators, copying key.
func (l *aggLayout) push(s *aggSeg, key []types.Value) int {
	s.keys = append(s.keys, key...)
	s.nums = append(s.nums, make([]aggNum, l.nums)...)
	s.exts = append(s.exts, make([]types.Value, l.exts)...)
	s.sets = append(s.sets, make([]map[uint64][]types.Value, l.sets)...)
	s.n++
	return s.n - 1
}

func (l *aggLayout) key(s *aggSeg, i int) []types.Value { return s.keys[i*l.keyW : (i+1)*l.keyW] }

// evalKey fills key with r's group expressions.
func (l *aggLayout) evalKey(key []types.Value, r types.Row, params []types.Value) error {
	for i, ge := range l.node.GroupExprs {
		v, err := ge.Eval(r, params)
		if err != nil {
			return err
		}
		key[i] = v
	}
	return nil
}

// accum folds input row r into group i of s.
func (l *aggLayout) accum(s *aggSeg, i int, r types.Row, params []types.Value) error {
	for a, spec := range l.node.Aggs {
		if spec.Star {
			s.nums[i*l.nums+l.slots[a].acc].count++
			continue
		}
		v, err := spec.Arg.Eval(r, params)
		if err != nil {
			return err
		}
		l.add(s, i, l.slots[a], v)
	}
	return nil
}

// add folds one input value into an aggregate of group i. NULLs are skipped;
// a DISTINCT aggregate skips what its group has already seen.
func (l *aggLayout) add(s *aggSeg, i int, sl aggSlot, v types.Value) {
	if v.IsNull() {
		return
	}
	if sl.set >= 0 {
		set := &s.sets[i*l.sets+sl.set]
		if *set == nil {
			*set = map[uint64][]types.Value{}
		}
		h := v.Hash()
		for _, prev := range (*set)[h] {
			if types.Equal(prev, v) {
				return
			}
		}
		(*set)[h] = append((*set)[h], v)
	}
	if sl.ext != 0 {
		if e := &s.exts[i*l.exts+sl.acc]; e.IsNull() || types.Compare(v, *e)*int(sl.ext) > 0 {
			*e = v
		}
		return
	}
	n := &s.nums[i*l.nums+sl.acc]
	n.count++
	if v.Numeric() {
		n.sum += v.AsFloat()
	}
}

// merge folds group j of src into group i of dst, two partials of one key. A
// DISTINCT aggregate replays src's deduplicated values through add, so that
// duplicates across partials collapse, in sorted-hash order, so that the
// merged state is identical run to run.
func (l *aggLayout) merge(dst *aggSeg, i int, src *aggSeg, j int) {
	for _, sl := range l.slots {
		switch {
		case sl.set >= 0:
			set := src.sets[j*l.sets+sl.set]
			hs := make([]uint64, 0, len(set))
			for h := range set {
				hs = append(hs, h)
			}
			slices.Sort(hs)
			for _, h := range hs {
				for _, v := range set[h] {
					l.add(dst, i, sl, v)
				}
			}
		case sl.ext != 0:
			l.add(dst, i, sl, src.exts[j*l.exts+sl.acc])
		default:
			d, s := &dst.nums[i*l.nums+sl.acc], src.nums[j*l.nums+sl.acc]
			d.count += s.count
			d.sum += s.sum
		}
	}
}

// row overwrites buf with group i of s as an output row, key‖aggregates.
func (l *aggLayout) row(buf types.Row, s *aggSeg, i int) types.Row {
	buf = append(buf[:0], l.key(s, i)...)
	for a, spec := range l.node.Aggs {
		sl, v := l.slots[a], types.Null()
		if sl.ext != 0 {
			v = s.exts[i*l.exts+sl.acc]
		} else if n := s.nums[i*l.nums+sl.acc]; spec.Func == "COUNT" {
			v = types.Int(n.count)
		} else if n.count > 0 && spec.Func == "SUM" {
			v = types.Float(n.sum)
		} else if n.count > 0 && spec.Func == "AVG" {
			v = types.Float(n.sum / float64(n.count))
		}
		buf = append(buf, v)
	}
	return buf
}

const aggSegGroups = 256 // groups per segment of an aggTable

// aggTable is the one group table every hash aggregation accumulates into —
// one worker's resident groups, a spilled partition's, a morsel's partial: a
// group is a dense id in a hashIndex, id/aggSegGroups its segment.
// Only the first segment grows by doubling, the others are allocated whole: a
// table of one group costs one group, a large one wastes at most a segment
// (growing one slab would allocate all it holds twice over).
type aggTable struct {
	lay  *aggLayout
	key  []types.Value // scratch: the current input row's group key
	segs []aggSeg
	hashIndex
}

func newAggTable(lay *aggLayout) aggTable {
	return aggTable{lay: lay, key: make([]types.Value, lay.keyW)}
}

// fold accumulates input row r into its group, adding the group if absent —
// unless the table already holds limit groups: then it reports false, and the
// key's hash for whoever spills the row.
func (t *aggTable) fold(r types.Row, params []types.Value, limit int) (uint64, bool, error) {
	if err := t.lay.evalKey(t.key, r, params); err != nil {
		return 0, false, err
	}
	h := types.HashRow(t.key)
	for id := t.first(h); id >= 0; id = t.after(id, h) {
		s, i := &t.segs[id/aggSegGroups], int(id%aggSegGroups)
		if rowsEqual(t.lay.key(s, i), t.key) {
			return h, true, t.lay.accum(s, i, r, params)
		}
	}
	if len(t.hashes) >= limit {
		return h, false, nil
	}
	si := int(t.add(h)) / aggSegGroups
	if si == len(t.segs) {
		t.segs = append(t.segs, t.lay.newSeg(min(si, 1)*aggSegGroups)) // the first grows from nothing
	}
	return h, true, t.lay.accum(&t.segs[si], t.lay.push(&t.segs[si], t.key), r, params)
}

// aggArena is where one worker keeps its morsels' partial groups, so that a
// morsel of a few groups allocates none: each column of a compacted segment
// is carved from a chunk of its own, which holds the groups of the morsel that
// opens it times share, the morsels the worker expects (up to aggSegGroups
// groups).
type aggArena struct {
	keys, exts []types.Value
	nums       []aggNum
	sets       []map[uint64][]types.Value
	hashes     []uint64
	share      int
}

// carve returns the next n elements of *chunk, clipped to their length, from
// a fresh chunk of size elements when it lacks the room.
func carve[T any](chunk *[]T, n, size int) []T {
	if cap(*chunk)-len(*chunk) < n {
		*chunk = make([]T, 0, size)
	}
	l := len(*chunk) + n
	*chunk = (*chunk)[:l]
	return (*chunk)[l-n : l : l]
}

// compact returns the table's groups as one segment cut to size, their hashes
// with them — carved from a when they are few, allocated on their own when
// more than a quarter segment — and empties the table: what a worker retains
// of a morsel is its groups, and the index and the segments serve its next
// morsel.
func (t *aggTable) compact(a *aggArena) aggSeg {
	l, n := t.lay, len(t.hashes)
	var out aggSeg
	if 4*n <= aggSegGroups {
		size := max(n, min(n*a.share, aggSegGroups))
		out = aggSeg{
			keys: carve(&a.keys, n*l.keyW, size*l.keyW)[:0], nums: carve(&a.nums, n*l.nums, size*l.nums)[:0],
			exts: carve(&a.exts, n*l.exts, size*l.exts)[:0], sets: carve(&a.sets, n*l.sets, size*l.sets)[:0],
			hashes: carve(&a.hashes, n, size)[:0],
		}
	} else {
		out = l.newSeg(n)
	}
	out.n, out.hashes = n, append(out.hashes, t.hashes...)
	for i := range t.segs {
		s := &t.segs[i]
		out.keys, out.nums = append(out.keys, s.keys...), append(out.nums, s.nums...)
		out.exts, out.sets = append(out.exts, s.exts...), append(out.sets, s.sets...)
		s.empty()
	}
	t.hashes, t.next = t.hashes[:0], t.next[:0]
	t.unlink()
	return out
}

// groupRef names group i of the seg'th of a list of segments.
type groupRef struct{ seg, i int32 }

// aggOutput emits the groups of a finished aggregation in key order, each
// assembled at Next into one reused row.
type aggOutput struct {
	lay   *aggLayout
	segs  []aggSeg
	order []groupRef
	row   types.Row
}

// allGroups lists every group of segs, in order.
func allGroups(segs []aggSeg) []groupRef {
	n := 0
	for si := range segs {
		n += segs[si].n
	}
	order := make([]groupRef, 0, max(n, 1))
	for si := range segs {
		for i := 0; i < segs[si].n; i++ {
			order = append(order, groupRef{int32(si), int32(i)})
		}
	}
	return order
}

// sort orders the groups order lists on the key, charging clk one unit of row
// work per group. A global aggregate with no input still has one group.
func (o *aggOutput) sort(clk *storage.Clock, lay *aggLayout, segs []aggSeg, order []groupRef) {
	if len(order) == 0 && lay.keyW == 0 {
		var s aggSeg
		lay.push(&s, nil)
		segs = append(segs, s)
		order = append(order, groupRef{seg: int32(len(segs) - 1)})
	}
	key := func(g groupRef) []types.Value { return lay.key(&segs[g.seg], int(g.i)) }
	slices.SortStableFunc(order, func(a, b groupRef) int { return compareKeys(key(a), key(b)) })
	for range order {
		clk.RowWork(1)
	}
	*o = aggOutput{lay: lay, segs: segs, order: order, row: o.row}
}

// Next lends the next group's row, valid until the following call.
func (o *aggOutput) Next() (types.Row, bool, error) {
	if len(o.order) == 0 {
		return nil, false, nil
	}
	g := o.order[0]
	o.order = o.order[1:]
	o.row = o.lay.row(o.row, &o.segs[g.seg], int(g.i))
	return o.row, true, nil
}

// keyMatches reports whether row's key columns equal key under SQL equality.
// key holds no NULL (probers check first); a NULL in row matches nothing.
func keyMatches(key []types.Value, row types.Row, cols []int) bool {
	for i, c := range cols {
		if row[c].IsNull() || !types.Equal(key[i], row[c]) {
			return false
		}
	}
	return true
}

// hashBuild is the build side of one hash join: the in-memory table, or the
// spill state when the broker's grant did not cover the build. It is shared
// read-only by every prober of the join.
type hashBuild struct {
	ctx   *Context
	node  *plan.JoinNode
	tab   *joinTable // what probers probe: the build, or a spill's resident partitions
	spill *spillJoin // set when the build exceeded its grant
	grant int
}

// openSpill partitions a build that exceeded b.grant; probers then see the
// resident partitions' table.
func (b *hashBuild) openSpill(build *packedRows, depth int) {
	b.spill = newSpillJoin(b.ctx, b.node, build, b.grant, depth)
	b.tab = b.spill.table
}

// release frees the table (or spill state) and returns the grant.
func (b *hashBuild) release() {
	b.tab = nil
	if b.spill != nil {
		b.spill.close()
		b.spill = nil
	}
	b.ctx.Mem.Release(b.grant)
	b.grant = 0
}

// joinProbe is one prober's state against a hashBuild: key scratch, the row a
// match is boxed into and the reused output row. A pipeline worker owns one per
// stage, linked to the next link of its chain; a spilled partition's replay
// owns one of its own.
type joinProbe struct {
	*hashBuild
	key  []types.Value
	cand types.Row
	out  joinRow
	rows int64          // rows handed on so far
	clk  *storage.Clock // a stage's: the clock it charges ...
	down adder          // ... and where its rows go
}

func (b *hashBuild) prober() *joinProbe {
	return &joinProbe{
		hashBuild: b,
		key:       make([]types.Value, len(b.node.LeftKeys)),
		out:       newJoinRow(b.node),
	}
}

// add is a stage's link: each, on the prober's clock, into down.
func (p *joinProbe) add(lr types.Row) error { return p.each(p.clk, lr, p.down.add) }

// each probes lr, charging clk one probe, and hands sink every output row — a
// match passing the residual, then (left outer, nothing matched) the
// null-extended row — charging one unit of row work each. The row is the
// prober's reused buffer, valid until sink returns. A row whose partition
// spilled is deferred to its probe run (copied) and yields nothing now: its
// matches and its outer row come out of spillJoin.finish.
func (p *joinProbe) each(clk *storage.Clock, lr types.Row, sink func(types.Row) error) error {
	clk.Probes(1)
	outer := p.node.Type == plan.LeftOuter
	if keyInto(p.key, lr, p.node.LeftKeys); !keyHasNull(p.key) {
		h := types.HashRow(p.key)
		if p.spill != nil && p.spill.deferProbe(lr, h) {
			return nil
		}
		for i := p.tab.first(h); i >= 0; i = p.tab.after(i, h) {
			if !p.tab.rows.match(p.key, int(i), p.node.RightKeys, &p.cand) {
				continue
			}
			out, ok, err := p.out.match(clk, p.ctx.Params, lr, p.cand)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			outer = false
			p.rows++
			if err := sink(out); err != nil {
				return err
			}
		}
	}
	if !outer {
		return nil
	}
	clk.RowWork(1)
	p.rows++
	return sink(p.out.outer(lr))
}
