// Package index implements a B+ tree over composite keys, the ordered access
// method used for index scans, index nested-loop joins and the physical
// design experiments. Non-unique keys are supported by tie-breaking on RID,
// so every stored entry is unique internally.
package index

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"

	"rqp/internal/storage"
	"rqp/internal/types"
)

const (
	maxLeaf  = 64 // max entries per leaf
	maxInner = 64 // max keys per inner node
)

// Entry is what Scan and Lookup visit: the RID of an indexed tuple. Its key
// stays packed in the tree.
type Entry = storage.RID

// compareValue is types.Compare, which holds Int and Date one numeric class:
// two of those, most index keys, are compared on their integers without the
// call.
func compareValue(a, b *types.Value) int {
	if (a.K == types.KindInt || a.K == types.KindDate) && (b.K == types.KindInt || b.K == types.KindDate) {
		return cmp.Compare(a.I, b.I)
	}
	return types.Compare(*a, *b)
}

// compareKeys orders two boxed keys column by column; a shorter key is a
// prefix and sorts first.
func compareKeys(a, b []types.Value) int {
	for i := range min(len(a), len(b)) {
		if c := compareValue(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// comparePrefix compares the packed key k, whose strings are strs (nil when
// it holds none), with key on their common columns: only those participate,
// which makes prefix (leading-column) bounds on multi-column indexes work.
func comparePrefix(k []byte, strs []string, key []types.Value, numCols int) int {
	for c := range min(len(key), numCols) {
		b, v := k[c*types.PackedSize:], &key[c]
		kind := types.PackedKind(b)
		if (kind == types.KindInt || kind == types.KindDate) && (v.K == types.KindInt || v.K == types.KindDate) {
			if r := cmp.Compare(int64(types.PackedWord(b)), v.I); r != 0 {
				return r
			}
			continue
		}
		if r := types.Compare(value(k, strs, c), *v); r != 0 {
			return r
		}
	}
	return 0
}

// value boxes column c of the packed key k, whose strings are strs.
func value(k []byte, strs []string, c int) types.Value {
	b := k[c*types.PackedSize:]
	if types.PackedKind(b) == types.KindString {
		return types.Str(strs[c])
	}
	return types.Unpack(b, nil)
}

// node is a leaf's entries or an inner node's separators, each a (key, RID)
// pair packed back to back in ents: the key's values as types.Pack lays them
// out, then the RID's 8 bytes. A string value's word is unused: its text is
// strs[i*numCols+c] for entry i, column c, and strs is nil until a key of
// the node holds a string.
type node struct {
	leaf     bool
	ents     []byte
	strs     []string
	children []*node // inner: children[i] holds entries < separator i
	next     *node   // leaf chain
}

// BTree is the tree handle. It is safe for concurrent use: Scan and Lookup
// hold its lock for reading for as long as they visit entries, Insert and
// Delete hold it for writing. A visit callback must therefore not write the
// tree (it would wait on itself): keyed DML collects the RIDs a lookup names
// and writes after the lookup returns.
//
// The tree keeps its keys packed at 9 B a value (types.Pack), 17 B an entry
// of one Int column where a boxed key and its RID took 32: Insert and Delete
// copy the key they are given, and nothing a caller holds is a view of the
// tree's.
type BTree struct {
	mu      sync.RWMutex
	root    *node
	size    int
	numCols int
	kw      int // bytes a packed key: numCols*types.PackedSize
	stride  int // bytes an entry: the key, then the RID
	height  int
}

// New returns an empty B+ tree over keys with the given column count.
func New(numCols int) *BTree {
	kw := numCols * types.PackedSize
	return &BTree{root: &node{leaf: true}, numCols: numCols, kw: kw, stride: kw + 8, height: 1}
}

// Len returns the number of stored entries.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Height returns the tree height (1 = just a leaf root).
func (t *BTree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// count returns the entries (or separators) n holds.
func (t *BTree) count(n *node) int { return len(n.ents) / t.stride }

// at returns entry i of n: its packed key and that key's strings (nil for
// none).
func (t *BTree) at(n *node, i int) ([]byte, []string) {
	var strs []string
	if n.strs != nil {
		strs = n.strs[i*t.numCols : (i+1)*t.numCols]
	}
	return n.ents[i*t.stride : i*t.stride+t.kw], strs
}

func (t *BTree) rid(n *node, i int) storage.RID {
	return storage.RID(binary.LittleEndian.Uint64(n.ents[i*t.stride+t.kw:]))
}

// compareAt orders entry i of n against (key, rid): key columns first — a
// key shorter than the tree's sorts before every entry it prefixes, a longer
// one after — then RIDs.
func (t *BTree) compareAt(n *node, i int, key []types.Value, rid storage.RID) int {
	k, strs := t.at(n, i)
	if c := comparePrefix(k, strs, key, t.numCols); c != 0 {
		return c
	}
	if len(key) != t.numCols {
		return cmp.Compare(t.numCols, len(key))
	}
	return cmp.Compare(t.rid(n, i), rid)
}

// open makes room for an entry at i, shifting the ones from i on right.
func (t *BTree) open(n *node, i int) {
	n.ents = append(n.ents, make([]byte, t.stride)...)
	copy(n.ents[(i+1)*t.stride:], n.ents[i*t.stride:])
	if n.strs != nil {
		n.strs = append(n.strs, make([]string, t.numCols)...)
		copy(n.strs[(i+1)*t.numCols:], n.strs[i*t.numCols:])
		clear(n.strs[i*t.numCols : (i+1)*t.numCols])
	}
}

// strings returns n's string list, made when it is first needed.
func (t *BTree) strings(n *node) []string {
	if n.strs == nil {
		n.strs = make([]string, t.count(n)*t.numCols)
	}
	return n.strs
}

// put packs (key, rid) into the room at i.
func (t *BTree) put(n *node, i int, key []types.Value, rid storage.RID) {
	b := n.ents[i*t.stride:]
	for c, v := range key {
		types.Pack(b[c*types.PackedSize:], v, 0)
		if v.K == types.KindString {
			t.strings(n)[i*t.numCols+c] = v.S
		}
	}
	binary.LittleEndian.PutUint64(b[t.kw:], uint64(rid))
}

// putPacked copies a packed entry and its strings into the room at i.
func (t *BTree) putPacked(n *node, i int, e []byte, strs []string) {
	copy(n.ents[i*t.stride:(i+1)*t.stride], e)
	if strs != nil {
		copy(t.strings(n)[i*t.numCols:], strs)
	}
}

// Insert adds an entry. Duplicate (key, rid) pairs are ignored. The tree
// packs a copy of key: the caller may write it afterwards.
func (t *BTree) Insert(key []types.Value, rid storage.RID) {
	if len(key) != t.numCols {
		panic(fmt.Sprintf("index: a key of %d values into a tree of %d", len(key), t.numCols))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	nw, sep, strs := t.insert(t.root, key, rid)
	if nw != nil {
		root := &node{ents: make([]byte, t.stride), children: []*node{t.root, nw}}
		t.putPacked(root, 0, sep, strs)
		t.root = root
		t.height++
	}
}

// insert descends and returns a new right sibling and its separator — the
// packed entry and its strings — if the child split. The separator is read
// from the split nodes' storage, which nothing writes before the parent has
// copied it.
func (t *BTree) insert(n *node, key []types.Value, rid storage.RID) (*node, []byte, []string) {
	if n.leaf {
		i := t.lowerBound(n, key, rid)
		if i < t.count(n) && t.compareAt(n, i, key, rid) == 0 {
			return nil, nil, nil // duplicate
		}
		t.open(n, i)
		t.put(n, i, key, rid)
		t.size++
		if t.count(n) <= maxLeaf {
			return nil, nil, nil
		}
		mid := t.count(n) / 2
		right := &node{leaf: true, next: n.next}
		right.ents = append(make([]byte, 0, (maxLeaf+1)*t.stride), n.ents[mid*t.stride:]...)
		n.ents = n.ents[:mid*t.stride]
		if n.strs != nil {
			right.strs = append(make([]string, 0, (maxLeaf+1)*t.numCols), n.strs[mid*t.numCols:]...)
			clear(n.strs[mid*t.numCols:])
			n.strs = n.strs[:mid*t.numCols]
		}
		n.next = right
		_, strs := t.at(right, 0)
		return right, right.ents[:t.stride], strs
	}
	ci := t.childIndex(n, key, rid)
	nw, sep, strs := t.insert(n.children[ci], key, rid)
	if nw == nil {
		return nil, nil, nil
	}
	t.open(n, ci)
	t.putPacked(n, ci, sep, strs)
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = nw
	if t.count(n) <= maxInner {
		return nil, nil, nil
	}
	mid := t.count(n) / 2
	upSep, upStrs := n.ents[mid*t.stride:(mid+1)*t.stride], []string(nil)
	right := &node{}
	right.ents = append(make([]byte, 0, (maxInner+1)*t.stride), n.ents[(mid+1)*t.stride:]...)
	if n.strs != nil {
		upStrs = n.strs[mid*t.numCols : (mid+1)*t.numCols]
		right.strs = append(make([]string, 0, (maxInner+1)*t.numCols), n.strs[(mid+1)*t.numCols:]...)
		n.strs = n.strs[:mid*t.numCols]
	}
	right.children = append(make([]*node, 0, maxInner+2), n.children[mid+1:]...)
	n.ents = n.ents[:mid*t.stride]
	n.children = n.children[:mid+1]
	return right, upSep, upStrs
}

// childIndex returns the child of inner node n whose range holds (key, rid):
// the one right of every separator <= it.
func (t *BTree) childIndex(n *node, key []types.Value, rid storage.RID) int {
	lo, hi := 0, t.count(n)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.compareAt(n, mid, key, rid) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first entry of leaf n not before (key, rid).
func (t *BTree) lowerBound(n *node, key []types.Value, rid storage.RID) int {
	lo, hi := 0, t.count(n)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.compareAt(n, mid, key, rid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafOf descends to the leaf whose range holds (key, rid).
func (t *BTree) leafOf(key []types.Value, rid storage.RID) *node {
	n := t.root
	for !n.leaf {
		n = n.children[t.childIndex(n, key, rid)]
	}
	return n
}

// Delete removes a (key, rid) entry; returns whether it existed. Underflow
// is tolerated (nodes are not rebalanced on delete — acceptable for the
// workloads here, where deletes are rare relative to inserts).
func (t *BTree) Delete(key []types.Value, rid storage.RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.leafOf(key, rid)
	i := t.lowerBound(n, key, rid)
	if i >= t.count(n) || t.compareAt(n, i, key, rid) != 0 {
		return false
	}
	n.ents = append(n.ents[:i*t.stride], n.ents[(i+1)*t.stride:]...)
	if n.strs != nil {
		end := len(n.strs) - t.numCols
		n.strs = append(n.strs[:i*t.numCols], n.strs[(i+1)*t.numCols:]...)
		clear(n.strs[end : end+t.numCols])
	}
	t.size--
	return true
}

// Find returns the RID of the first entry whose key equals key on key's
// columns, and whether there is one. It charges nothing and takes no
// callback, so a uniqueness probe allocates nothing.
func (t *BTree) Find(key []types.Value) (storage.RID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.leafOf(key, -1<<62)
	for i := t.lowerBound(n, key, -1<<62); n != nil; n, i = n.next, 0 {
		if i < t.count(n) {
			if k, strs := t.at(n, i); comparePrefix(k, strs, key, t.numCols) == 0 {
				return t.rid(n, i), true
			}
			return 0, false
		}
	}
	return 0, false
}

// Repeated returns a key without NULLs that two entries hold, or nil: what
// makes a unique index over the entries wrong (SQL's unique keys repeat only
// where a column is NULL). Equal keys lie side by side in key order, so it
// compares each entry with the one before, charging nothing.
func (t *BTree) Repeated() []types.Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	var prev *node
	pi := 0
	for ; n != nil; n = n.next {
		for i := range t.count(n) {
			if prev != nil && t.sameKey(prev, pi, n, i) {
				return t.key(n, i)
			}
			prev, pi = n, i
		}
	}
	return nil
}

// sameKey reports whether entry i of n and entry j of m hold equal keys with
// no NULL in them.
func (t *BTree) sameKey(n *node, i int, m *node, j int) bool {
	a, as := t.at(n, i)
	b, bs := t.at(m, j)
	for c := range t.numCols {
		x, y := a[c*types.PackedSize:], b[c*types.PackedSize:]
		kx, ky := types.PackedKind(x), types.PackedKind(y)
		switch {
		case kx == types.KindNull || ky == types.KindNull:
			return false
		case (kx == types.KindInt || kx == types.KindDate) && (ky == types.KindInt || ky == types.KindDate):
			if types.PackedWord(x) != types.PackedWord(y) {
				return false
			}
		case types.Compare(value(a, as, c), value(b, bs, c)) != 0:
			return false
		}
	}
	return true
}

// Bound describes one end of a range scan.
type Bound struct {
	Key  []types.Value
	Incl bool
	Set  bool // false = unbounded
}

// Scan visits the RIDs of the entries in key order within [lo, hi],
// charging the clock one random read per level descended plus one
// sequential read per leaf visited. NULL keys sort before every other key
// and no SQL comparison matches one, so it visits no entry whose leading key
// is NULL — an open lower bound would reach them. The callback returns false
// to stop.
func (t *BTree) Scan(clk *storage.Clock, lo, hi Bound, fn func(storage.RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if clk != nil {
		clk.RandRead(t.height)
	}
	n, i := t.root, 0
	if lo.Set {
		// An exclusive bound still lands on the first key >= lo and skips
		// equal keys below.
		start := storage.RID(-1 << 62)
		if !lo.Incl {
			start = 1<<62 - 1
		}
		for !n.leaf {
			n = n.children[t.childIndex(n, lo.Key, start)]
		}
		i = t.lowerBound(n, lo.Key, -1<<62)
	}
	for !n.leaf {
		n = n.children[0]
	}
	for ; n != nil; n, i = n.next, 0 {
		if clk != nil {
			clk.SeqRead(1)
		}
		for ; i < t.count(n); i++ {
			k, strs := t.at(n, i)
			if t.numCols > 0 && types.PackedKind(k) == types.KindNull {
				continue
			}
			if lo.Set && !lo.Incl && comparePrefix(k, strs, lo.Key, t.numCols) == 0 {
				continue
			}
			if hi.Set {
				c := comparePrefix(k, strs, hi.Key, t.numCols)
				if c > 0 || (c == 0 && !hi.Incl) {
					return
				}
			}
			if !fn(t.rid(n, i)) {
				return
			}
		}
	}
}

// Lookup visits the RIDs of all entries exactly matching key (on the key's
// columns; a short key matches as a prefix).
func (t *BTree) Lookup(clk *storage.Clock, key []types.Value, fn func(storage.RID) bool) {
	t.Scan(clk, Bound{Key: key, Incl: true, Set: true}, Bound{Key: key, Incl: true, Set: true}, fn)
}

// key boxes the key of entry i of n into a new slice.
func (t *BTree) key(n *node, i int) []types.Value {
	k, strs := t.at(n, i)
	out := make([]types.Value, t.numCols)
	for c := range out {
		out[c] = value(k, strs, c)
	}
	return out
}

// CheckInvariants validates ordering and structural invariants; used by
// property tests. It returns an error describing the first violation.
func (t *BTree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	var prev []types.Value
	var prevRID storage.RID
	var walk func(n *node, depth int) (int, error)
	leafDepth := -1
	walk = func(n *node, depth int) (int, error) {
		if len(n.ents)%t.stride != 0 || (n.strs != nil && len(n.strs) != t.count(n)*t.numCols) {
			return 0, fmt.Errorf("index: node holds %d bytes and %d strings for entries of %d bytes and %d values", len(n.ents), len(n.strs), t.stride, t.numCols)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("index: uneven leaf depth %d vs %d", depth, leafDepth)
			}
			for i := range t.count(n) {
				if prev != nil && t.compareAt(n, i, prev, prevRID) <= 0 {
					return 0, fmt.Errorf("index: out-of-order entries %v/%d >= %v/%d", prev, prevRID, t.key(n, i), t.rid(n, i))
				}
				prev, prevRID = t.key(n, i), t.rid(n, i)
				count++
			}
			return t.count(n), nil
		}
		if len(n.children) != t.count(n)+1 {
			return 0, fmt.Errorf("index: inner node has %d children for %d keys", len(n.children), t.count(n))
		}
		total := 0
		for _, c := range n.children {
			sub, err := walk(c, depth+1)
			if err != nil {
				return 0, err
			}
			total += sub
		}
		return total, nil
	}
	total, err := walk(t.root, 1)
	if err != nil {
		return err
	}
	if total != t.size || count != t.size {
		return fmt.Errorf("index: size mismatch: counted %d, recorded %d", total, t.size)
	}
	return nil
}
