// Package index implements a B+ tree over composite keys, the ordered access
// method used for index scans, index nested-loop joins and the physical
// design experiments. Non-unique keys are supported by tie-breaking on RID,
// so every stored entry is unique internally.
package index

import (
	"fmt"
	"sync"

	"rqp/internal/storage"
	"rqp/internal/types"
)

const (
	maxLeaf   = 64 // max entries per leaf
	maxInner  = 64 // max keys per inner node
	minFill   = maxLeaf / 2
	innerFill = maxInner / 2
)

// Entry is one indexed tuple reference.
type Entry struct {
	Key []types.Value
	RID storage.RID
}

// compareValue is types.Compare, which holds Int and Date one numeric class:
// two of those, most index keys, are compared on their integers without the
// call.
func compareValue(a, b *types.Value) int {
	if (a.K == types.KindInt || a.K == types.KindDate) && (b.K == types.KindInt || b.K == types.KindDate) {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	return types.Compare(*a, *b)
}

func compareKeys(a, b []types.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareValue(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	// A shorter key is a prefix and sorts first; prefix searches exploit this.
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func compareEntries(a, b Entry) int {
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.RID < b.RID:
		return -1
	case a.RID > b.RID:
		return 1
	}
	return 0
}

type node struct {
	leaf     bool
	entries  []Entry // leaf payload
	keys     []Entry // inner separators: children[i] holds entries < keys[i]
	children []*node
	next     *node // leaf chain
}

// BTree is the tree handle. It is safe for concurrent use: Scan and Lookup
// hold its lock for reading for as long as they visit entries, Insert and
// Delete hold it for writing. A visit callback must therefore not write the
// tree (it would wait on itself): keyed DML collects the RIDs a lookup names
// and writes after the lookup returns.
type BTree struct {
	mu      sync.RWMutex
	root    *node
	size    int
	numCols int
	height  int
}

// New returns an empty B+ tree over keys with the given column count.
func New(numCols int) *BTree {
	return &BTree{root: &node{leaf: true}, numCols: numCols, height: 1}
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

// NumCols returns the key column count.
func (t *BTree) NumCols() int { return t.numCols }

// Insert adds an entry. Duplicate (key, rid) pairs are ignored. The tree
// keeps key, so the caller must not write it afterwards.
func (t *BTree) Insert(key []types.Value, rid storage.RID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	nw, sep := t.insert(t.root, Entry{Key: key, RID: rid})
	if nw != nil {
		t.root = &node{
			keys:     []Entry{sep},
			children: []*node{t.root, nw},
		}
		t.height++
	}
}

// insert descends and returns a new right sibling and separator if the child
// split.
func (t *BTree) insert(n *node, e Entry) (*node, Entry) {
	if n.leaf {
		i := lowerBoundEntries(n.entries, e)
		if i < len(n.entries) && compareEntries(n.entries[i], e) == 0 {
			return nil, Entry{} // duplicate
		}
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = e
		t.size++
		if len(n.entries) <= maxLeaf {
			return nil, Entry{}
		}
		mid := len(n.entries) / 2
		right := &node{leaf: true, next: n.next}
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid]
		n.next = right
		return right, right.entries[0]
	}
	ci := t.childIndex(n, e)
	nw, sep := t.insert(n.children[ci], e)
	if nw == nil {
		return nil, Entry{}
	}
	n.keys = append(n.keys, Entry{})
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = nw
	if len(n.keys) <= maxInner {
		return nil, Entry{}
	}
	mid := len(n.keys) / 2
	upSep := n.keys[mid]
	right := &node{}
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, upSep
}

func (t *BTree) childIndex(n *node, e Entry) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(n.keys[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func lowerBoundEntries(es []Entry, e Entry) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntries(es[mid], e) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Delete removes a (key, rid) entry; returns whether it existed. Underflow
// is tolerated (nodes are not rebalanced on delete — acceptable for the
// workloads here, where deletes are rare relative to inserts).
func (t *BTree) Delete(key []types.Value, rid storage.RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Entry{Key: key, RID: rid}
	n := t.root
	for !n.leaf {
		n = n.children[t.childIndex(n, e)]
	}
	i := lowerBoundEntries(n.entries, e)
	if i >= len(n.entries) || compareEntries(n.entries[i], e) != 0 {
		return false
	}
	n.entries = append(n.entries[:i], n.entries[i+1:]...)
	t.size--
	return true
}

// Bound describes one end of a range scan.
type Bound struct {
	Key  []types.Value
	Incl bool
	Set  bool // false = unbounded
}

// Scan visits entries in key order within [lo, hi], charging the clock one
// random read per level descended plus one sequential read per leaf visited.
// The callback returns false to stop.
func (t *BTree) Scan(clk *storage.Clock, lo, hi Bound, fn func(Entry) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if clk != nil {
		clk.RandRead(t.height)
	}
	n := t.root
	var start Entry
	if lo.Set {
		start = Entry{Key: lo.Key, RID: -1 << 62}
		if !lo.Incl {
			start.RID = 1<<62 - 1
			// For exclusive bounds we still land on the first key >= lo and
			// skip equal keys below.
		}
	}
	for !n.leaf {
		if lo.Set {
			n = n.children[t.childIndex(n, start)]
		} else {
			n = n.children[0]
		}
	}
	i := 0
	if lo.Set {
		i = lowerBoundEntries(n.entries, Entry{Key: lo.Key, RID: -1 << 62})
	}
	for n != nil {
		if clk != nil {
			clk.SeqRead(1)
		}
		for ; i < len(n.entries); i++ {
			e := n.entries[i]
			if lo.Set && !lo.Incl {
				if prefixCompare(e.Key, lo.Key) == 0 {
					continue
				}
			}
			if hi.Set {
				c := prefixCompare(e.Key, hi.Key)
				if c > 0 || (c == 0 && !hi.Incl) {
					return
				}
			}
			if !fn(e) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// prefixCompare compares key against a possibly shorter bound key: only the
// bound's columns participate, enabling prefix (leading-column) scans on
// multi-column indexes.
func prefixCompare(key, bound []types.Value) int {
	n := len(bound)
	if len(key) < n {
		n = len(key)
	}
	for i := 0; i < n; i++ {
		if c := compareValue(&key[i], &bound[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Lookup visits all entries exactly matching key (on the key's columns; a
// short key matches as a prefix).
func (t *BTree) Lookup(clk *storage.Clock, key []types.Value, fn func(Entry) bool) {
	t.Scan(clk, Bound{Key: key, Incl: true, Set: true}, Bound{Key: key, Incl: true, Set: true}, fn)
}

// CheckInvariants validates ordering and structural invariants; used by
// property tests. It returns an error describing the first violation.
func (t *BTree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	count := 0
	var prev *Entry
	var walk func(n *node, depth int) (int, error)
	leafDepth := -1
	walk = func(n *node, depth int) (int, error) {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("index: uneven leaf depth %d vs %d", depth, leafDepth)
			}
			for i := range n.entries {
				if prev != nil && compareEntries(*prev, n.entries[i]) >= 0 {
					return 0, fmt.Errorf("index: out-of-order entries %v >= %v", prev, n.entries[i])
				}
				prev = &n.entries[i]
				count++
			}
			return len(n.entries), nil
		}
		if len(n.children) != len(n.keys)+1 {
			return 0, fmt.Errorf("index: inner node has %d children for %d keys", len(n.children), len(n.keys))
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
