package index

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// TestPropertyInterleavedInsertDelete runs random interleaved inserts and
// deletes against a map-based model, checking contents and structural
// invariants along the way.
func TestPropertyInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := New(1)
	model := map[int64]map[storage.RID]bool{} // key -> set of rids
	keyOf := map[storage.RID]int64{}          // every rid is inserted once

	insert := func(k int64, rid storage.RID) {
		tr.Insert(key1(k), rid)
		if model[k] == nil {
			model[k] = map[storage.RID]bool{}
		}
		model[k][rid] = true
		keyOf[rid] = k
	}
	remove := func(k int64, rid storage.RID) {
		got := tr.Delete(key1(k), rid)
		want := model[k][rid]
		if got != want {
			t.Fatalf("Delete(%d,%d) = %v, model says %v", k, rid, got, want)
		}
		delete(model[k], rid)
	}

	nextRID := storage.RID(0)
	live := [][2]int64{} // (key, rid) pairs believed present
	for op := 0; op < 20000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0: // insert-biased
			k := rng.Int63n(500)
			rid := nextRID
			nextRID++
			insert(k, rid)
			live = append(live, [2]int64{k, int64(rid)})
		default:
			i := rng.Intn(len(live))
			pair := live[i]
			live = append(live[:i], live[i+1:]...)
			remove(pair[0], storage.RID(pair[1]))
		}
		if op%4000 == 3999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	// Final full comparison.
	wantTotal := 0
	for _, rids := range model {
		wantTotal += len(rids)
	}
	if tr.Len() != wantTotal {
		t.Fatalf("Len = %d, model %d", tr.Len(), wantTotal)
	}
	var keys []int64
	tr.Scan(nil, Bound{}, Bound{}, func(rid storage.RID) bool {
		k := keyOf[rid]
		keys = append(keys, k)
		if !model[k][rid] {
			t.Fatalf("tree holds (%d,%d) not in model", k, rid)
		}
		return true
	})
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("final scan not sorted")
	}
}

// TestNullKeysSortFirst pins the NULL ordering contract index scans rely on:
// a NULL key is stored before every other, and no scan visits it — not one
// with an open lower bound, which would reach it, nor a lookup of NULL.
func TestNullKeysSortFirst(t *testing.T) {
	tr := New(1)
	tr.Insert([]types.Value{types.Int(5)}, 1)
	tr.Insert([]types.Value{types.Null()}, 2)
	tr.Insert([]types.Value{types.Int(-5)}, 3)
	var stored []storage.RID
	for _, e := range entries(tr) {
		stored = append(stored, e.rid)
	}
	if !slices.Equal(stored, []storage.RID{2, 3, 1}) {
		t.Errorf("NULL should sort first: %v", stored)
	}
	var order []storage.RID
	visit := func(rid storage.RID) bool {
		order = append(order, rid)
		return true
	}
	tr.Scan(nil, Bound{}, Bound{}, visit)
	tr.Scan(nil, Bound{}, Bound{Key: []types.Value{types.Int(0)}, Set: true}, visit)
	tr.Lookup(nil, []types.Value{types.Null()}, visit)
	if !slices.Equal(order, []storage.RID{3, 1, 3}) {
		t.Errorf("scans visited %v, want [3 1 3]: no NULL key", order)
	}
}
