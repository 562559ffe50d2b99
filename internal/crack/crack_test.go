package crack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rqp/internal/storage"
)

// checkInvariants verifies that every piece respects its bounds — the
// cracking correctness property.
func checkInvariants(c *CrackedColumn) bool {
	for _, b := range c.bounds {
		for i := 0; i < b.pos; i++ {
			if c.vals[i] >= b.val {
				return false
			}
		}
		for i := b.pos; i < len(c.vals); i++ {
			if c.vals[i] < b.val {
				return false
			}
		}
	}
	return true
}

func randomVals(seed int64, n int, domain int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(domain)
	}
	return out
}

func TestCrackedRangeCountMatchesScan(t *testing.T) {
	vals := randomVals(1, 5000, 1000)
	c := NewCracked(vals)
	s := NewScan(vals)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		lo := rng.Int63n(1000)
		hi := lo + rng.Int63n(200)
		want := s.RangeCount(nil, lo, hi)
		got := c.RangeCount(nil, lo, hi)
		if got != want {
			t.Fatalf("query %d [%d,%d): cracked %d, scan %d", q, lo, hi, got, want)
		}
		if !checkInvariants(c) {
			t.Fatal("cracking invariant violated")
		}
	}
	if c.NumPieces() < 10 {
		t.Errorf("column should fragment with queries: %d pieces", c.NumPieces())
	}
}

func TestCrackedPreservesMultiset(t *testing.T) {
	vals := randomVals(3, 2000, 100)
	c := NewCracked(vals)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 50; q++ {
		lo := rng.Int63n(100)
		c.RangeCount(nil, lo, lo+rng.Int63n(30))
	}
	count := map[int64]int{}
	for _, v := range vals {
		count[v]++
	}
	for _, v := range c.vals {
		count[v]--
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("value %d count off by %d after cracking", k, n)
		}
	}
}

func TestCrackingCostDecreases(t *testing.T) {
	vals := randomVals(5, 100000, 10000)
	c := NewCracked(vals)
	clk := storage.NewClock(storage.DefaultCostModel())
	rng := rand.New(rand.NewSource(6))
	cost := func() float64 {
		w := clk.StartWatch()
		lo := rng.Int63n(9000)
		c.RangeCount(clk, lo, lo+100)
		return w.Elapsed()
	}
	early := 0.0
	for i := 0; i < 5; i++ {
		early += cost()
	}
	for i := 0; i < 200; i++ {
		cost()
	}
	late := 0.0
	for i := 0; i < 5; i++ {
		late += cost()
	}
	if late >= early/5 {
		t.Errorf("cracking should converge: early=%.1f late=%.1f", early, late)
	}
}

func TestSortedColumnBaseline(t *testing.T) {
	vals := randomVals(7, 3000, 500)
	s := NewScan(vals)
	idx := NewSorted(nil, vals)
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 100; q++ {
		lo := rng.Int63n(500)
		hi := lo + rng.Int63n(100)
		if got, want := idx.RangeCount(nil, lo, hi), s.RangeCount(nil, lo, hi); got != want {
			t.Fatalf("[%d,%d): sorted %d scan %d", lo, hi, got, want)
		}
	}
}

func TestAdaptiveMergedMatchesScan(t *testing.T) {
	vals := randomVals(9, 8000, 2000)
	am := NewAdaptiveMerged(nil, vals, 512)
	s := NewScan(vals)
	rng := rand.New(rand.NewSource(10))
	for q := 0; q < 150; q++ {
		lo := rng.Int63n(2000)
		hi := lo + rng.Int63n(300)
		if got, want := am.RangeCount(nil, lo, hi), s.RangeCount(nil, lo, hi); got != want {
			t.Fatalf("query %d [%d,%d): merged %d scan %d", q, lo, hi, got, want)
		}
	}
	if len(am.merged) == 0 {
		t.Error("queries should have consolidated some values")
	}
}

func TestAdaptiveMergedRepeatQueryCheaper(t *testing.T) {
	vals := randomVals(11, 50000, 5000)
	clk := storage.NewClock(storage.DefaultCostModel())
	am := NewAdaptiveMerged(clk, vals, 2048)
	w1 := clk.StartWatch()
	am.RangeCount(clk, 1000, 1200)
	first := w1.Elapsed()
	w2 := clk.StartWatch()
	am.RangeCount(clk, 1000, 1200)
	second := w2.Elapsed()
	if second >= first {
		t.Errorf("repeat query should be cheaper: first=%.2f second=%.2f", first, second)
	}
}

func TestPropertyCrackedEqualsSorted(t *testing.T) {
	f := func(seed int64, queries uint8) bool {
		vals := randomVals(seed, 500, 100)
		c := NewCracked(vals)
		idx := NewSorted(nil, vals)
		rng := rand.New(rand.NewSource(seed + 1))
		for q := 0; q < int(queries)%40+5; q++ {
			lo := rng.Int63n(100)
			hi := lo + rng.Int63n(40)
			if c.RangeCount(nil, lo, hi) != idx.RangeCount(nil, lo, hi) {
				return false
			}
		}
		return checkInvariants(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndDegenerateRanges(t *testing.T) {
	vals := randomVals(12, 100, 50)
	c := NewCracked(vals)
	if c.RangeCount(nil, 10, 10) != 0 {
		t.Error("empty range should count 0")
	}
	if c.RangeCount(nil, 20, 10) != 0 {
		t.Error("inverted range should count 0")
	}
	if got := c.RangeCount(nil, -100, 1000); got != 100 {
		t.Errorf("full range = %d, want 100", got)
	}
}
