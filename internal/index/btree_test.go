package index

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rqp/internal/storage"
	"rqp/internal/types"
)

func key1(v int64) []types.Value { return []types.Value{types.Int(v)} }

// collect returns the keys a scan visits, in order: key(rid) for each RID.
func collect(t *BTree, lo, hi Bound, key func(storage.RID) int64) []int64 {
	var out []int64
	t.Scan(nil, lo, hi, func(rid storage.RID) bool {
		out = append(out, key(rid))
		return true
	})
	return out
}

func ridKey(rid storage.RID) int64 { return int64(rid) }

func TestInsertAndFullScanSorted(t *testing.T) {
	tr := New(1)
	rng := rand.New(rand.NewSource(7))
	vals := rng.Perm(5000)
	for i, v := range vals {
		tr.Insert(key1(int64(v)), storage.RID(i))
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collect(tr, Bound{}, Bound{}, func(rid storage.RID) int64 { return int64(vals[rid]) })
	if len(got) != 5000 {
		t.Fatalf("scan returned %d", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("scan out of order at %d: %d", i, v)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("5000 entries should split the root: height=%d", tr.Height())
	}
}

func TestDuplicateKeysDistinctRIDs(t *testing.T) {
	tr := New(1)
	for i := 0; i < 100; i++ {
		tr.Insert(key1(7), storage.RID(i))
	}
	tr.Insert(key1(7), storage.RID(50)) // exact duplicate ignored
	if tr.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tr.Len())
	}
	n := 0
	tr.Lookup(nil, key1(7), func(Entry) bool { n++; return true })
	if n != 100 {
		t.Errorf("Lookup found %d", n)
	}
}

func TestRangeScans(t *testing.T) {
	tr := New(1)
	for i := 0; i < 100; i++ {
		tr.Insert(key1(int64(i*2)), storage.RID(i)) // evens 0..198
	}
	cases := []struct {
		lo, hi    Bound
		wantFirst int64
		wantLast  int64
		wantCount int
	}{
		{Bound{Key: key1(10), Incl: true, Set: true}, Bound{Key: key1(20), Incl: true, Set: true}, 10, 20, 6},
		{Bound{Key: key1(10), Incl: false, Set: true}, Bound{Key: key1(20), Incl: false, Set: true}, 12, 18, 4},
		{Bound{Key: key1(9), Incl: true, Set: true}, Bound{Key: key1(21), Incl: true, Set: true}, 10, 20, 6},
		{Bound{}, Bound{Key: key1(4), Incl: true, Set: true}, 0, 4, 3},
		{Bound{Key: key1(194), Incl: true, Set: true}, Bound{}, 194, 198, 3},
	}
	for i, c := range cases {
		got := collect(tr, c.lo, c.hi, func(rid storage.RID) int64 { return 2 * int64(rid) })
		if len(got) != c.wantCount || got[0] != c.wantFirst || got[len(got)-1] != c.wantLast {
			t.Errorf("case %d: got %v", i, got)
		}
	}
}

func TestDelete(t *testing.T) {
	tr := New(1)
	for i := 0; i < 1000; i++ {
		tr.Insert(key1(int64(i)), storage.RID(i))
	}
	for i := 0; i < 1000; i += 2 {
		if !tr.Delete(key1(int64(i)), storage.RID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(key1(0), storage.RID(0)) {
		t.Error("double delete should fail")
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collect(tr, Bound{}, Bound{}, ridKey)
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("deleted key %d still present", v)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeKeysAndPrefixScan(t *testing.T) {
	tr := New(2)
	// (a, b) for a in 0..9, b in 0..9
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			tr.Insert([]types.Value{types.Int(a), types.Int(b)}, storage.RID(a*10+b))
		}
	}
	// Prefix scan: a = 4 via short bound key.
	var got []int64
	pref := []types.Value{types.Int(4)}
	tr.Scan(nil, Bound{Key: pref, Incl: true, Set: true}, Bound{Key: pref, Incl: true, Set: true}, func(rid storage.RID) bool {
		got = append(got, int64(rid)%10)
		return true
	})
	if len(got) != 10 {
		t.Fatalf("prefix scan found %d entries: %v", len(got), got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("prefix scan should return b in order")
	}
	// Full composite range: (3,5) <= key <= (4,2)
	var cnt int
	tr.Scan(nil,
		Bound{Key: []types.Value{types.Int(3), types.Int(5)}, Incl: true, Set: true},
		Bound{Key: []types.Value{types.Int(4), types.Int(2)}, Incl: true, Set: true},
		func(e Entry) bool { cnt++; return true })
	if cnt != 8 { // (3,5)..(3,9) = 5, (4,0)..(4,2) = 3
		t.Errorf("composite range found %d, want 8", cnt)
	}
}

func TestScanChargesClock(t *testing.T) {
	tr := New(1)
	for i := 0; i < 10000; i++ {
		tr.Insert(key1(int64(i)), storage.RID(i))
	}
	clk := storage.NewClock(storage.DefaultCostModel())
	tr.Lookup(clk, key1(5000), func(Entry) bool { return true })
	_, r, _, _ := clk.Counters()
	if int(r) != tr.Height() {
		t.Errorf("lookup charged %d random reads, want height %d", r, tr.Height())
	}
}

// Property test: for random insert sets, scan equals the sorted input.
func TestPropertyScanMatchesSortedInsert(t *testing.T) {
	f := func(xs []int16) bool {
		tr := New(1)
		seen := map[int16]bool{}
		var uniq []int64
		for _, x := range xs {
			if !seen[x] {
				seen[x] = true
				uniq = append(uniq, int64(x))
			}
			tr.Insert(key1(int64(x)), storage.RID(x))
		}
		sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
		got := collect(tr, Bound{}, Bound{}, ridKey)
		if len(got) != len(uniq) {
			return false
		}
		for i := range got {
			if got[i] != uniq[i] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property test: range scan equals filter over full scan.
func TestPropertyRangeScanEqualsFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New(1)
	var all []int64
	for i := 0; i < 2000; i++ {
		v := rng.Int63n(500)
		tr.Insert(key1(v), storage.RID(i))
		all = append(all, v)
	}
	for trial := 0; trial < 100; trial++ {
		lo := rng.Int63n(500)
		hi := lo + rng.Int63n(100)
		loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
		want := 0
		for _, v := range all {
			okLo := v > lo || (loIncl && v == lo)
			okHi := v < hi || (hiIncl && v == hi)
			if okLo && okHi {
				want++
			}
		}
		got := 0
		tr.Scan(nil,
			Bound{Key: key1(lo), Incl: loIncl, Set: true},
			Bound{Key: key1(hi), Incl: hiIncl, Set: true},
			func(Entry) bool { got++; return true })
		if got != want {
			t.Fatalf("range [%d,%d] incl(%v,%v): got %d want %d", lo, hi, loIncl, hiIncl, got, want)
		}
	}
}

// TestRepeatedKeys: Repeated finds two entries with keys equal as the tree
// orders them — an Int and a Float of one value, two strings — wherever
// they sit, and ignores keys with a NULL, which may repeat.
func TestRepeatedKeys(t *testing.T) {
	for _, c := range []struct {
		keys [][]types.Value
		want []types.Value
	}{
		{[][]types.Value{key1(1), key1(2), key1(3)}, nil},
		{[][]types.Value{key1(2), {types.Float(2)}}, []types.Value{types.Float(2)}},
		{[][]types.Value{{types.Null()}, {types.Null()}, key1(1)}, nil},
		{[][]types.Value{{types.Str("a"), types.Null()}, {types.Str("a"), types.Null()}}, nil},
		{[][]types.Value{{types.Str("a"), types.Int(1)}, {types.Str("b"), types.Int(1)}, {types.Str("a"), types.Int(1)}}, []types.Value{types.Str("a"), types.Int(1)}},
	} {
		tr := New(len(c.keys[0]))
		for i, k := range c.keys {
			tr.Insert(k, storage.RID(i))
		}
		for i := 0; i < 200; i++ { // spread over several leaves
			tr.Insert(append([]types.Value{types.Int(int64(1000 + i))}, c.keys[0][1:]...), storage.RID(1000+i))
		}
		if got := tr.Repeated(); types.HashRows([]types.Row{got}) != types.HashRows([]types.Row{c.want}) {
			t.Errorf("Repeated over %v = %v, want %v", c.keys, got, c.want)
		}
	}
}
