package storage

import (
	"sync"
	"testing"

	"rqp/internal/types"
)

func TestClockAccounting(t *testing.T) {
	c := NewClock(DefaultCostModel())
	c.SeqRead(3)
	c.RandRead(2)
	c.Write(1)
	c.RowWork(100)
	want := 3*1.0 + 2*4.0 + 1*2.0 + 100*0.01
	if got := c.Units(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("Units = %v, want %v", got, want)
	}
	s, r, w, rows := c.Counters()
	if s != 3 || r != 2 || w != 1 || rows != 100 {
		t.Errorf("Counters = %d %d %d %d", s, r, w, rows)
	}
	c.Reset()
	if c.Units() != 0 {
		t.Error("Reset should zero the clock")
	}
}

func TestClockConcurrentSafety(t *testing.T) {
	c := NewClock(DefaultCostModel())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.SeqRead(1)
			}
		}()
	}
	wg.Wait()
	if s, _, _, _ := c.Counters(); s != 8000 {
		t.Errorf("concurrent SeqRead lost updates: %d", s)
	}
}

// TestClockBatchChargeParity: the batch charge must equal the same number of
// single charges bit for bit in the integer unit domain — the identity the
// per-block and per-build filter charges rest on.
func TestClockBatchChargeParity(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 1024, 99999} {
		single := NewClock(DefaultCostModel())
		batch := NewClock(DefaultCostModel())
		for i := 0; i < n; i++ {
			single.FilterTests(1)
		}
		batch.FilterTestsBatch(n)
		if single.Units() != batch.Units() {
			t.Errorf("n=%d: batch charges %v != %v single charges", n, batch.Units(), single.Units())
		}
	}
}

func TestStopwatch(t *testing.T) {
	c := NewClock(DefaultCostModel())
	c.SeqRead(5)
	w := c.StartWatch()
	c.SeqRead(7)
	if e := w.Elapsed(); e != 7 {
		t.Errorf("Elapsed = %v, want 7", e)
	}
}

func TestHeapInsertGetScan(t *testing.T) {
	h := NewHeap()
	var rids []RID
	for i := 0; i < 200; i++ {
		rids = append(rids, h.Insert(nil, types.Row{types.Int(int64(i))}))
	}
	if h.NumRows() != 200 {
		t.Fatalf("NumRows = %d", h.NumRows())
	}
	wantPages := (200 + PageRows - 1) / PageRows
	if h.NumPages() != wantPages {
		t.Errorf("NumPages = %d, want %d", h.NumPages(), wantPages)
	}
	r, ok := h.Get(nil, rids[150])
	if !ok || r[0].I != 150 {
		t.Errorf("Get(150) = %v %v", r, ok)
	}
	// Scan order and completeness.
	i := 0
	h.Scan(nil, func(rid RID, r types.Row) bool {
		if r[0].I != int64(i) {
			t.Fatalf("scan out of order at %d: %v", i, r)
		}
		i++
		return true
	})
	if i != 200 {
		t.Errorf("scan visited %d rows", i)
	}
}

func TestHeapScanChargesPerPage(t *testing.T) {
	h := NewHeap()
	for i := 0; i < PageRows*3; i++ {
		h.Insert(nil, types.Row{types.Int(int64(i))})
	}
	clk := NewClock(DefaultCostModel())
	h.Scan(clk, func(RID, types.Row) bool { return true })
	if s, _, _, _ := clk.Counters(); s != 3 {
		t.Errorf("scan charged %d seq reads, want 3", s)
	}
	clk.Reset()
	h.Get(clk, MakeRID(1, 0))
	if _, r, _, _ := clk.Counters(); r != 1 {
		t.Errorf("get charged %d rand reads, want 1", r)
	}
}

func TestHeapDeleteUpdate(t *testing.T) {
	h := NewHeap()
	rid := h.Insert(nil, types.Row{types.Int(1)})
	rid2 := h.Insert(nil, types.Row{types.Int(2)})
	if !h.Delete(nil, rid) {
		t.Fatal("delete failed")
	}
	if h.Delete(nil, rid) {
		t.Error("double delete should fail")
	}
	if _, ok := h.Get(nil, rid); ok {
		t.Error("deleted row should be gone")
	}
	if h.NumRows() != 1 {
		t.Errorf("NumRows = %d after delete", h.NumRows())
	}
	if !h.Update(nil, rid2, types.Row{types.Int(99)}) {
		t.Fatal("update failed")
	}
	r, _ := h.Get(nil, rid2)
	if r[0].I != 99 {
		t.Errorf("update not visible: %v", r)
	}
	if h.Update(nil, rid, types.Row{types.Int(5)}) {
		t.Error("update of deleted row should fail")
	}
	// Scan skips deleted.
	n := 0
	h.Scan(nil, func(RID, types.Row) bool { n++; return true })
	if n != 1 {
		t.Errorf("scan visited %d rows after delete", n)
	}
}

// TestHeapChangedSinceMark: the mark records where each page's live rows
// begin; after it, Changed lists exactly the pages a write touched (a failed
// write touches none) and the page count, and with no write since the mark
// it allocates nothing.
func TestHeapChangedSinceMark(t *testing.T) {
	h := NewHeap()
	var rids []RID
	for i := 0; i < 3*PageRows+10; i++ {
		rids = append(rids, h.Insert(nil, types.Row{types.Int(int64(i))}))
	}
	h.Delete(nil, rids[1])
	n := 0
	m := h.ScanMarked(func(types.Row) { n++ })
	want := []int32{0, PageRows - 1, 2*PageRows - 1, 3*PageRows - 1, 3*PageRows + 9}
	if n != 3*PageRows+9 || len(m.PageStart) != len(want) {
		t.Fatalf("mark of %d rows: %v", n, m.PageStart)
	}
	for i, w := range want {
		if m.PageStart[i] != w {
			t.Fatalf("PageStart = %v, want %v", m.PageStart, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { h.Changed(m, nil) }); allocs != 0 {
		t.Errorf("Changed with no write since the mark allocated %v times", allocs)
	}
	if got, pages := h.Changed(m, nil); got != nil || pages != 4 {
		t.Fatalf("no write since the mark: changed %v of %d pages", got, pages)
	}
	h.Update(nil, rids[2*PageRows], types.Row{types.Int(-1)})
	h.Delete(nil, rids[1]) // already gone: no write
	h.Insert(nil, types.Row{types.Int(-2)})
	for i := 0; i < PageRows; i++ {
		h.Insert(nil, types.Row{types.Int(int64(i))})
	}
	if got, pages := h.Changed(m, nil); len(got) != 2 || got[0] != 2 || got[1] != 3 || pages != 5 {
		t.Fatalf("changed %v of %d pages, want [2 3] of 5", got, pages)
	}
}

func TestHeapEarlyStop(t *testing.T) {
	h := NewHeap()
	for i := 0; i < 100; i++ {
		h.Insert(nil, types.Row{types.Int(int64(i))})
	}
	n := 0
	h.Scan(nil, func(RID, types.Row) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRIDCodec(t *testing.T) {
	r := MakeRID(12345, 67)
	if r.Page() != 12345 || r.Slot() != 67 {
		t.Errorf("RID roundtrip failed: %d %d", r.Page(), r.Slot())
	}
}

func TestGetOutOfRange(t *testing.T) {
	h := NewHeap()
	h.Insert(nil, types.Row{types.Int(1)})
	if _, ok := h.Get(nil, MakeRID(5, 0)); ok {
		t.Error("out-of-range page should miss")
	}
	if _, ok := h.Get(nil, MakeRID(0, 50)); ok {
		t.Error("out-of-range slot should miss")
	}
}

func TestClockShardMerge(t *testing.T) {
	serial := NewClock(DefaultCostModel())
	sharded := NewClock(DefaultCostModel())
	charge := func(c *Clock, n int) {
		for i := 0; i < n; i++ {
			c.SeqRead(1)
			c.RandRead(2)
			c.Write(1)
			c.RowWork(3)
			c.Probes(2)
			c.Compares(5)
		}
	}
	charge(serial, 12)
	// The same multiset of charges split across three shards must merge to
	// exactly the serial total — the cost-parity invariant parallel
	// execution relies on.
	shards := []*Clock{sharded.Shard(), sharded.Shard(), sharded.Shard()}
	charge(shards[0], 5)
	charge(shards[1], 4)
	charge(shards[2], 3)
	for _, s := range shards {
		sharded.Merge(s)
	}
	if su, pu := serial.Units(), sharded.Units(); su != pu {
		t.Fatalf("sharded units %v != serial units %v", pu, su)
	}
	s1, r1, w1, c1 := serial.Counters()
	s2, r2, w2, c2 := sharded.Counters()
	if s1 != s2 || r1 != r2 || w1 != w2 || c1 != c2 {
		t.Fatalf("counters diverge: serial (%d %d %d %d) vs sharded (%d %d %d %d)",
			s1, r1, w1, c1, s2, r2, w2, c2)
	}
}
