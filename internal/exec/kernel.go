package exec

import (
	"math/bits"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// The join and materialisation kernel: the one row arena every retainer
// copies through, the one hash table every hash join builds, and the one
// probe loop every hash join runs. Row, batch, morsel and spill operators
// differ only in how they feed rows in and carry rows out.

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

// joinTable is a flat chained hash table over build rows: bucket head/tail
// pairs, a next link per row and the stored 64-bit key hashes. Rows chain at
// the tail, so the candidates of a hash come back in build order — the
// property that keeps every join's output order independent of the table
// layout. Reads are safe concurrently once building has finished.
type joinTable struct {
	rows    []types.Row
	hashes  []uint64
	next    []int32    // next row of the same bucket, -1 at the end
	buckets [][2]int32 // head, tail; -1 when empty
	shift   uint       // 64 - log2(len(buckets))
}

// noKey marks (in next) a bulk row whose key holds a NULL: it matches
// nothing and is never linked.
const noKey = -2

// newJoinTable returns a table over rows (which it keeps, not copies); they
// still have to be hashed and linked (hashRange, link). With no rows it is
// an empty table ready for add.
func newJoinTable(rows []types.Row) *joinTable {
	t := &joinTable{rows: rows, hashes: make([]uint64, len(rows)), next: make([]int32, len(rows))}
	t.resize(len(rows))
	return t
}

// resize sets the bucket array to the power of two at or above n (load
// factor at most one), emptied.
func (t *joinTable) resize(n int) {
	size := 1
	if n > 1 {
		size = 1 << bits.Len(uint(n-1))
	}
	t.buckets = make([][2]int32, size)
	for i := range t.buckets {
		t.buckets[i] = [2]int32{-1, -1}
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// bucket spreads h by Fibonacci hashing (HashRow's low bits are only as good
// as the last value's).
func (t *joinTable) bucket(h uint64) *[2]int32 {
	return &t.buckets[(h*0x9e3779b97f4a7c15)>>t.shift]
}

// hashRange hashes the key columns of rows [lo, hi), charging clk the
// insert cost of probes hash probes per row (NULL keys included: the insert
// is charged before the key is looked at). Disjoint ranges may run
// concurrently. Returns how many of the rows carry a key.
func (t *joinTable) hashRange(lo, hi int, cols []int, clk *storage.Clock, probes int) int {
	key := make([]types.Value, len(cols))
	keyed := 0
	for i := lo; i < hi; i++ {
		clk.Probes(probes)
		keyInto(key, t.rows[i], cols)
		if keyHasNull(key) {
			t.next[i] = noKey
			continue
		}
		t.hashes[i] = types.HashRow(key)
		keyed++
	}
	return keyed
}

// link chains every hashed row in build order.
func (t *joinTable) link() {
	for i := range t.rows {
		if t.next[i] != noKey {
			t.linkTail(int32(i))
		}
	}
}

func (t *joinTable) linkTail(i int32) {
	t.next[i] = -1
	b := t.bucket(t.hashes[i])
	if b[1] >= 0 {
		t.next[b[1]] = i
	} else {
		b[0] = i
	}
	b[1] = i
}

// add appends one row with key hash h, growing the bucket array as needed
// (the incremental build of the symmetric hash join and DISTINCT).
func (t *joinTable) add(r types.Row, h uint64) {
	if len(t.rows) == len(t.buckets) {
		t.resize(2 * len(t.rows))
		t.link()
	}
	t.rows = append(t.rows, r)
	t.hashes = append(t.hashes, h)
	t.next = append(t.next, -1)
	t.linkTail(int32(len(t.rows) - 1))
}

// first returns the index of the first row whose stored hash is h, or -1;
// after continues from row i. Together they enumerate exactly the rows a
// map[hash][]row bucket would hold, in build order, without allocating.
func (t *joinTable) first(h uint64) int32 { return t.seek(t.bucket(h)[0], h) }

func (t *joinTable) after(i int32, h uint64) int32 { return t.seek(t.next[i], h) }

func (t *joinTable) seek(i int32, h uint64) int32 {
	for i >= 0 && t.hashes[i] != h {
		i = t.next[i]
	}
	return i
}

// buildJoinTable is the serial build: hash and link rows on clk.
func buildJoinTable(rows []types.Row, cols []int, clk *storage.Clock, probes int) *joinTable {
	t := newJoinTable(rows)
	t.hashRange(0, len(rows), cols, clk, probes)
	t.link()
	return t
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

// openSerial is the build phase of the serial joins: drain the build child,
// derive the runtime filters the plan announced (so they are published
// before the probe side opens and its scans bind), and index the rows.
func (b *hashBuild) openSerial(right Operator) error {
	build, err := drain(right)
	if err != nil {
		return err
	}
	buildRuntimeFilters(b.ctx, b.node, b.ctx.Clock, build)
	b.open(build)
	return nil
}

// open indexes the drained build side under a fresh grant, serially on the
// context clock: the whole build when the grant covers it, the resident
// partitions of a spillJoin otherwise.
func (b *hashBuild) open(build []types.Row) {
	b.grant = b.ctx.Mem.Grant(len(build))
	if len(build) > b.grant {
		b.openSpill(build, 0)
		return
	}
	b.tab = buildJoinTable(build, b.node.RightKeys, b.ctx.Clock, 2) // insert costs double a probe (see cost model)
}

// openSpill partitions a build that exceeded b.grant; probers then see the
// resident partitions' table.
func (b *hashBuild) openSpill(build []types.Row, depth int) {
	b.spill = newSpillJoin(b.ctx, b.node, build, b.grant, depth)
	b.tab = b.spill.table
}

// replay joins the spilled partitions once the probe input is exhausted
// and returns their output rows, already charged; nil when nothing spilled.
func (b *hashBuild) replay() ([]types.Row, error) {
	if b.spill == nil {
		return nil, nil
	}
	var out RowSet
	err := b.spill.finish(out.add)
	return out.Rows(), err
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

// joinProbe is one prober's state against a hashBuild: key scratch, the
// reused output row and the cursor of the probe row in flight. begin starts
// a probe row, next yields its joined rows one at a time; a morsel worker
// owns one prober, the serial operators own one each.
type joinProbe struct {
	*hashBuild
	key   []types.Value
	out   joinRow
	lrow  types.Row
	hash  uint64
	cur   int32 // next candidate, -1 when the chain is exhausted
	outer bool  // a null-extended row is still owed if nothing matches
	rows  int64 // rows each has handed to its sinks so far
}

func (b *hashBuild) prober() *joinProbe {
	return &joinProbe{
		hashBuild: b,
		key:       make([]types.Value, len(b.node.LeftKeys)),
		out:       newJoinRow(b.node),
		cur:       -1,
	}
}

// begin starts probing lr, charging clk one probe. lr must stay valid until
// the last next call for it. A row whose partition spilled is deferred to
// its probe run (copied) and yields nothing now: its matches and its outer
// row come out of spillJoin.finish.
func (p *joinProbe) begin(clk *storage.Clock, lr types.Row) {
	clk.Probes(1)
	p.lrow, p.cur, p.outer = lr, -1, p.node.Type == plan.LeftOuter
	keyInto(p.key, lr, p.node.LeftKeys)
	if keyHasNull(p.key) {
		return
	}
	p.hash = types.HashRow(p.key)
	if p.spill != nil && p.spill.deferProbe(lr, p.hash) {
		p.outer = false
		return
	}
	p.cur = p.tab.first(p.hash)
}

// next returns the next output row of the probe row in flight — a match
// passing the residual, then (left outer, nothing matched) the null-extended
// row — charging clk one unit of row work per row returned. The row is the
// prober's reused buffer, valid until the next call.
func (p *joinProbe) next(clk *storage.Clock) (types.Row, bool, error) {
	for p.cur >= 0 {
		cand := p.tab.rows[p.cur]
		p.cur = p.tab.after(p.cur, p.hash)
		if !keyMatches(p.key, cand, p.node.RightKeys) {
			continue
		}
		out, ok, err := p.out.match(clk, p.ctx.Params, p.lrow, cand)
		if err != nil {
			return nil, false, err
		}
		if ok {
			p.outer = false
			return out, true, nil
		}
	}
	if p.outer {
		p.outer = false
		clk.RowWork(1)
		return p.out.outer(p.lrow), true, nil
	}
	return nil, false, nil
}

// each probes lr to exhaustion, handing every output row to sink (which
// must copy what it keeps).
func (p *joinProbe) each(clk *storage.Clock, lr types.Row, sink func(types.Row) error) error {
	p.begin(clk, lr)
	for {
		r, ok, err := p.next(clk)
		if err != nil || !ok {
			return err
		}
		p.rows++
		if err := sink(r); err != nil {
			return err
		}
	}
}
