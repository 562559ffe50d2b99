package index

import (
	"cmp"
	"fmt"
	"slices"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// Build returns the tree that Inserting (keys[i*numCols:(i+1)*numCols],
// rids[i]) for i = 0, 1, … into New(numCols) makes — the keys lie end to end
// in one slice — with the same height, leaves and separators, so every scan
// over it is charged the same. Like Insert it packs copies of the keys: the
// caller may reuse them once it returns.
//
// It does not run those inserts on the keys. It sorts the entries once,
// replays the insert sequence on their int32 ranks, and then materialises
// each node at its final size from build-wide slabs: the leaves' entries lie
// packed in one array in key order, each leaf a full slice of it, and the
// separators in another.
func Build(numCols int, keys []types.Value, rids []storage.RID) *BTree {
	if len(keys) != len(rids)*numCols {
		panic(fmt.Sprintf("index: %d key values for %d entries of %d", len(keys), len(rids), numCols))
	}
	t := New(numCols)
	order, rank := sortEntries(numCols, keys, rids)
	b := replay{height: 1}
	b.root = b.leaf()
	for _, r := range rank {
		b.put(r)
	}
	m := materialiser{t: t, keys: keys, rids: rids, order: order}
	m.nodes = make([]node, b.leaves+b.inner)
	ents := make([]byte, (b.size+b.leaves-1)*t.stride) // the leaves', then the separators
	m.ents[0], m.ents[1] = ents[:b.size*t.stride], ents[b.size*t.stride:]
	if slices.ContainsFunc(keys, func(v types.Value) bool { return v.K == types.KindString }) {
		strs := make([]string, (b.size+b.leaves-1)*numCols)
		m.strs[0], m.strs[1] = strs[:b.size*numCols], strs[b.size*numCols:]
	}
	m.kids = make([]*node, b.leaves+b.inner-1)
	t.root, t.size, t.height = m.node(b.root), b.size, b.height
	return t
}

// sortEntries returns the entries' indexes in (key, RID) order, and each
// entry's rank: its position in that order, or an equal entry's earlier one.
// Single-column Int and Date keys, most indexes, sort as integers.
func sortEntries(numCols int, keys []types.Value, rids []storage.RID) (order, rank []int32) {
	key := func(i int32) []types.Value { return keys[int(i)*numCols : int(i+1)*numCols] }
	order = make([]int32, len(rids))
	ints := numCols == 1 && !slices.ContainsFunc(keys, func(v types.Value) bool { return v.K != types.KindInt && v.K != types.KindDate })
	if ints {
		ps := make([]pair, len(rids))
		for i, k := range keys {
			ps[i] = pair{k.I, rids[i], int32(i)}
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
			if c := compareKeys(key(a), key(b)); c != 0 {
				return c
			}
			if c := cmp.Compare(rids[a], rids[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	rank = make([]int32, len(rids))
	for p, i := range order {
		rank[i] = int32(p)
		if p > 0 {
			if j := order[p-1]; rids[j] == rids[i] && compareKeys(key(j), key(i)) == 0 {
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
// slabs sized to the whole tree: the leaves' entries and the separators
// packed ([0] and [1]), their strings when a key holds one, the children.
type materialiser struct {
	t     *BTree
	keys  []types.Value // end to end
	rids  []storage.RID
	order []int32

	nodes []node
	ents  [2][]byte
	strs  [2][]string
	kids  []*node
	last  *node // the leaf chain's tail so far
}

// carve fills n with the entries ranked ranks, from the leaves' slabs or
// (inner) the separators'.
func (m *materialiser) carve(n *node, ranks []int32, inner int) {
	t, k := m.t, len(ranks)
	ents, strs := &m.ents[inner], &m.strs[inner]
	n.ents, *ents = (*ents)[:k*t.stride:k*t.stride], (*ents)[k*t.stride:]
	if *strs != nil {
		n.strs, *strs = (*strs)[:k*t.numCols:k*t.numCols], (*strs)[k*t.numCols:]
	}
	for j, r := range ranks {
		i := int(m.order[r])
		t.put(n, j, m.keys[i*t.numCols:(i+1)*t.numCols], m.rids[i])
	}
}

// node materialises rn and, depth first and left to right, what is under
// it: the leaves come in chain order.
func (m *materialiser) node(rn *rnode) *node {
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	if rn.kids == nil {
		m.carve(n, rn.ranks, 0)
		n.leaf = true
		if m.last != nil {
			m.last.next = n
		}
		m.last = n
		return n
	}
	m.carve(n, rn.ranks, 1)
	k := len(rn.ranks)
	n.children, m.kids = m.kids[:k+1:k+1], m.kids[k+1:]
	for j, c := range rn.kids {
		n.children[j] = m.node(c)
	}
	return n
}
