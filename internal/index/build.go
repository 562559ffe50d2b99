package index

import (
	"cmp"
	"slices"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// Build returns the tree that Inserting (keys[i], rids[i]) for i = 0, 1, …
// into New(numCols) makes: the same height, leaves and separators, so every
// scan over it is charged the same. The tree keeps each keys[i] as given —
// a key may be a view of its heap row — and the caller must not write one
// afterwards.
//
// It does not run those inserts on the keys. It sorts the entries once,
// replays the insert sequence on their int32 ranks, and then materialises
// each node at its final size: the leaves' entries lie in one array in key
// order, each leaf a full slice of it.
func Build(numCols int, keys [][]types.Value, rids []storage.RID) *BTree {
	order, rank := sortEntries(keys, rids)
	b := replay{height: 1}
	b.root = b.leaf()
	for _, r := range rank {
		b.put(r)
	}
	m := materialiser{keys: keys, rids: rids, order: order}
	m.nodes = make([]node, b.leaves+b.inner)
	m.entries = make([]Entry, b.size)
	m.seps = make([]Entry, b.leaves-1)
	m.kids = make([]*node, b.leaves+b.inner-1)
	return &BTree{root: m.node(b.root), size: b.size, numCols: numCols, height: b.height}
}

// sortEntries returns the entries' indexes in (key, RID) order, and each
// entry's rank: its position in that order, or an equal entry's earlier one.
// Single-column Int and Date keys, most indexes, sort as integers.
func sortEntries(keys [][]types.Value, rids []storage.RID) (order, rank []int32) {
	order = make([]int32, len(rids))
	ints := true
	for _, k := range keys {
		if len(k) != 1 || (k[0].K != types.KindInt && k[0].K != types.KindDate) {
			ints = false
			break
		}
	}
	if ints {
		ps := make([]pair, len(rids))
		for i, k := range keys {
			ps[i] = pair{k[0].I, rids[i], int32(i)}
		}
		// The radix sort leaves equal keys in input order, which is RID
		// order when the RIDs ascend, as a heap scan's do.
		if !slices.IsSortedFunc(ps, comparePairs) {
			radixSort(ps)
			if !slices.IsSortedFunc(ps, comparePairs) {
				slices.SortFunc(ps, comparePairs)
			}
		}
		for p := range ps {
			order[p] = ps[p].i
		}
	} else {
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := compareEntries(Entry{keys[a], rids[a]}, Entry{keys[b], rids[b]}); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	rank = make([]int32, len(rids))
	for p, i := range order {
		rank[i] = int32(p)
		if p > 0 {
			if j := order[p-1]; rids[j] == rids[i] && compareKeys(keys[j], keys[i]) == 0 {
				rank[i] = rank[j] // a duplicate: its insert changes nothing
			}
		}
	}
	return order, rank
}

// pair is an entry whose key is one Int or Date: the integer, the RID and
// the entry's index.
type pair struct {
	k   int64
	rid storage.RID
	i   int32
}

func comparePairs(a, b pair) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	if c := cmp.Compare(a.rid, b.rid); c != 0 {
		return c
	}
	return cmp.Compare(a.i, b.i)
}

// radixSort orders ps by k, stably: least significant byte first, one pass
// per byte that is not the same in every key.
func radixSort(ps []pair) {
	if len(ps) == 0 {
		return
	}
	key := func(p pair) uint64 { return uint64(p.k) ^ 1<<63 } // ordered as k is
	var counts [8][256]int
	for _, p := range ps {
		u := key(p)
		for d := range counts {
			counts[d][byte(u>>(8*d))]++
		}
	}
	first := key(ps[0])
	src, dst := ps, make([]pair, len(ps))
	for d := range counts {
		c := &counts[d]
		if c[byte(first>>(8*d))] == len(ps) {
			continue
		}
		at := 0
		for b := range c {
			c[b], at = at, at+c[b]
		}
		for _, p := range src {
			b := byte(key(p) >> (8 * d))
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	copy(ps, src)
}

// rnode is a node of the replay: a leaf's entries or an inner node's
// separators, as ranks.
type rnode struct {
	ranks []int32
	kids  []*rnode // nil at a leaf
}

// replay is BTree.Insert and BTree.insert on ranks: the same splits at the
// same points, comparing integers.
type replay struct {
	root          *rnode
	size, height  int
	leaves, inner int
}

// leaf returns an empty leaf with room for a split's worth of ranks.
func (b *replay) leaf() *rnode {
	b.leaves++
	return &rnode{ranks: make([]int32, 0, maxLeaf+1)}
}

func (b *replay) innerNode() *rnode {
	b.inner++
	return &rnode{ranks: make([]int32, 0, maxInner+1), kids: make([]*rnode, 0, maxInner+2)}
}

func (b *replay) put(r int32) {
	nw, sep := b.insert(b.root, r)
	if nw != nil {
		root := b.innerNode()
		root.ranks = append(root.ranks, sep)
		root.kids = append(root.kids, b.root, nw)
		b.root = root
		b.height++
	}
}

func (b *replay) insert(n *rnode, r int32) (*rnode, int32) {
	i, found := len(n.ranks), false
	if i > 0 && r <= n.ranks[i-1] { // else r goes last, as heap-ordered keys that ascend do
		i, found = slices.BinarySearch(n.ranks, r)
	}
	if n.kids == nil {
		if found {
			return nil, 0 // duplicate
		}
		n.ranks = slices.Insert(n.ranks, i, r)
		b.size++
		if len(n.ranks) <= maxLeaf {
			return nil, 0
		}
		mid := len(n.ranks) / 2
		right := b.leaf()
		right.ranks = append(right.ranks, n.ranks[mid:]...)
		n.ranks = n.ranks[:mid]
		return right, right.ranks[0]
	}
	if found {
		i++ // childIndex: the child right of every separator <= r
	}
	nw, sep := b.insert(n.kids[i], r)
	if nw == nil {
		return nil, 0
	}
	n.ranks = slices.Insert(n.ranks, i, sep)
	n.kids = slices.Insert(n.kids, i+1, nw)
	if len(n.ranks) <= maxInner {
		return nil, 0
	}
	mid := len(n.ranks) / 2
	right := b.innerNode()
	right.ranks = append(right.ranks, n.ranks[mid+1:]...)
	right.kids = append(right.kids, n.kids[mid+1:]...)
	up := n.ranks[mid]
	n.ranks = n.ranks[:mid]
	n.kids = n.kids[:mid+1]
	return right, up
}

// materialiser turns the replay's nodes into the tree's, carving each from
// an array sized to the whole tree.
type materialiser struct {
	keys  [][]types.Value
	rids  []storage.RID
	order []int32

	nodes   []node
	entries []Entry // leaves', in key order
	seps    []Entry // inner nodes'
	kids    []*node
	last    *node // the leaf chain's tail so far
}

func (m *materialiser) entry(r int32) Entry {
	i := m.order[r]
	return Entry{Key: m.keys[i], RID: m.rids[i]}
}

// node materialises rn and, depth first and left to right, what is under
// it: the leaves come in chain order.
func (m *materialiser) node(rn *rnode) *node {
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	if rn.kids == nil {
		k := len(rn.ranks)
		n.leaf = true
		n.entries, m.entries = m.entries[:k:k], m.entries[k:]
		for j, r := range rn.ranks {
			n.entries[j] = m.entry(r)
		}
		if m.last != nil {
			m.last.next = n
		}
		m.last = n
		return n
	}
	k := len(rn.ranks)
	n.keys, m.seps = m.seps[:k:k], m.seps[k:]
	for j, r := range rn.ranks {
		n.keys[j] = m.entry(r)
	}
	n.children, m.kids = m.kids[:k+1:k+1], m.kids[k+1:]
	for j, c := range rn.kids {
		n.children[j] = m.node(c)
	}
	return n
}
