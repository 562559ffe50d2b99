package index

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rqp/internal/storage"
	"rqp/internal/types"
)

// buildCase is a table's index keys in heap order, numCols values a row laid
// end to end, as CREATE INDEX collects them.
type buildCase struct {
	name    string
	numCols int
	keys    []types.Value
}

func buildCases() []buildCase {
	rng := rand.New(rand.NewSource(32))
	gen := func(name string, rows, numCols int, f func(i int) []types.Value) buildCase {
		c := buildCase{name: name, numCols: numCols}
		for i := 0; i < rows; i++ {
			c.keys = append(c.keys, f(i)...)
		}
		return c
	}
	perm := rng.Perm(3000)
	return []buildCase{
		gen("unique ascending", 3000, 1, func(i int) []types.Value { return key1(int64(i)) }),
		gen("unique shuffled", 3000, 1, func(i int) []types.Value { return key1(int64(perm[i])) }),
		gen("non-unique", 4000, 1, func(int) []types.Value { return key1(rng.Int63n(150)) }),
		gen("one value", 500, 1, func(int) []types.Value { return key1(7) }),
		gen("composite", 3000, 2, func(int) []types.Value {
			return []types.Value{types.Int(rng.Int63n(40)), types.Str(fmt.Sprintf("s%02d", rng.Intn(30)))}
		}),
		gen("null keys", 2000, 2, func(i int) []types.Value {
			k := []types.Value{types.Int(rng.Int63n(60)), types.Date(8000 + rng.Int63n(90))}
			if i%5 == 0 {
				k[rng.Intn(2)] = types.Null()
			}
			return k
		}),
		gen("mixed Int/Date/Float", 3000, 1, func(i int) []types.Value {
			switch x := rng.Int63n(400); i % 3 {
			case 0:
				return []types.Value{types.Int(x)}
			case 1:
				return []types.Value{types.Date(x)}
			default:
				return []types.Value{types.Float(float64(x) / 2)}
			}
		}),
	}
}

// shape is a tree's height and its leaves' entry counts in chain order, runs
// of one count written count×run.
func shape(t *BTree) string {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	var counts []int
	for ; n != nil; n = n.next {
		counts = append(counts, len(n.entries))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "h%d", t.height)
	for i, j := 0, 0; i < len(counts); i = j {
		for j = i + 1; j < len(counts) && counts[j] == counts[i]; j++ {
		}
		fmt.Fprintf(&b, " %d", counts[i])
		if j-i > 1 {
			fmt.Fprintf(&b, "×%d", j-i)
		}
	}
	return b.String()
}

func entries(t *BTree) []Entry {
	var out []Entry
	t.Scan(nil, Bound{}, Bound{}, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// wantShapes are the shapes row-by-row Inserts built before InsertBatch
// existed: a split rule that moves changes them, whichever path builds.
var wantShapes = map[string]string{
	"unique ascending":     "h3 32×92 56",
	"unique shuffled":      "h3 54 50 45 49 63 60 63 32 33 47 48 33×2 57 51 42 37 50 38 34 57×2 54 52 58 52 46 54 32 33 62 57 58 46 39 41 53 39 55 64 48×2 35×2 32 33 37×2 32 35 39 36 40 51 35 34 35×2 46 51 35 36 48 53 63×2",
	"non-unique":           "h3 37 46 38 55 41×2 62 36×2 54 33 36 54 33 35 58 39 46 33 34 50 62 39 45 61 49 47 53 58 35 34 52 58 35 51 35 40 60 62 38 49 57 32 34 38 44 47 62 35 40 57 61 33 43 58 33 36 58 40 44×2 35 53 52 63 36 33 64 52 37 52 61 63 37 39 56 42 48 34 39 33×2 54 33 36 32 36 45 46",
	"one value":            "h2 32×14 52",
	"composite":            "h3 64 34 33 38 36 37 42 51 57 33×3 34 37 38 37 39 34 38 60 44 41 38 41 34 37 57 40 42 41 47 39×2 58 48 49 38 39 43 49 56 50 46 49 62 59 53 42 55 61 49×2 47 49 63 33 37 45 46 37 40 54 36 40 41 45 39 45",
	"null keys":            "h2 59 37 38 33 34 58 35 34 32 34 45 56 33 38 43×2 56 33 38 33 36 58 34 36 33×2 63 55 56 53 59 48 51 35×2 40 44 45 42 46 43 36 38 58 52 59",
	"mixed Int/Date/Float": "h3 46 53 38 36 39 41 64 59 51 50 49 53 62 51 35 46 63 38 34 42 55 37 36 32 35 39×2 37 40 60 54 58 46 47 52 44 37 64 49 55 60 37 36 53 62 57 33 34 42 39 42 48×2 43 38 37 35 38×2 41 64 33 37 32 33 39 35",
}

// TestCreateIndexMatchesInserts: one InsertBatch of a table's keys in heap
// order builds the tree the same Inserts one by one build — height, every
// leaf's entry count in chain order, the entries — and both are the tree the
// row-by-row build made before the batch existed.
func TestCreateIndexMatchesInserts(t *testing.T) {
	for _, c := range buildCases() {
		rows := len(c.keys) / c.numCols
		rids := make([]storage.RID, rows)
		for i := range rids {
			rids[i] = storage.RID(3*i + 1) // heap order, with gaps
		}
		batch := New(c.numCols)
		batch.InsertBatch(c.keys, rids)
		rowwise := New(c.numCols)
		for i, rid := range rids {
			rowwise.Insert(append([]types.Value(nil), c.keys[i*c.numCols:(i+1)*c.numCols]...), rid)
		}
		for _, tr := range []*BTree{batch, rowwise} {
			if err := tr.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}
		if got, want := shape(batch), shape(rowwise); got != want {
			t.Errorf("%s: batch-built shape\n%s\nrow by row\n%s", c.name, got, want)
		}
		if got, want := shape(rowwise), wantShapes[c.name]; got != want {
			t.Errorf("%s: shape\n%s\nwant\n%s", c.name, got, want)
		}
		if got, want := entries(batch), entries(rowwise); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batch-built entries differ from row-by-row ones", c.name)
		}
		if batch.Len() != rows {
			t.Errorf("%s: %d entries, want %d", c.name, batch.Len(), rows)
		}
	}
}

// TestCompareKeysKindMatrix: compareValue's Int/Date path orders every pair
// of kinds as types.Compare does, key column by key column.
func TestCompareKeysKindMatrix(t *testing.T) {
	generic := func(a, b []types.Value) int {
		for i := 0; i < len(a) && i < len(b); i++ {
			if c := types.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return len(a) - len(b)
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(33))
	value := func() types.Value {
		x := rng.Int63n(7) - 3
		switch rng.Intn(7) {
		case 0:
			return types.Null()
		case 1:
			return types.Int(x)
		case 2:
			return types.Date(x)
		case 3:
			return types.Float([]float64{float64(x), float64(x) + 0.5, math.NaN(), math.Inf(-1)}[rng.Intn(4)])
		case 4:
			return types.Bool(x > 0)
		case 5:
			return types.Str(fmt.Sprint(x))
		}
		return types.Int([]int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1}[rng.Intn(4)])
	}
	key := func() []types.Value {
		k := make([]types.Value, 1+rng.Intn(3))
		for i := range k {
			k[i] = value()
		}
		return k
	}
	for i := 0; i < 200000; i++ {
		a, b := key(), key()
		if got, want := compareKeys(a, b), sign(generic(a, b)); got != want {
			t.Fatalf("compareKeys(%v, %v) = %d, want %d", a, b, got, want)
		}
		n := min(len(a), len(b))
		if got, want := prefixCompare(a, b), sign(generic(a[:n], b[:n])); got != want {
			t.Fatalf("prefixCompare(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}
