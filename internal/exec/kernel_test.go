package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// candidates enumerates the ids a probe of hash h visits, in order, checking
// that each still boxes to the build row it was added as.
func candidates(t *testing.T, tab *joinTable, h uint64, rows []types.Row) []int {
	var out []int
	for i := tab.first(h); i >= 0; i = tab.after(i, h) {
		var buf types.Row
		if got := tab.rows.row(int(i), &buf); got.String() != rows[i].String() {
			t.Fatalf("candidate %d of hash %d boxes to %v, added as %v", i, h, got, rows[i])
		}
		out = append(out, int(i))
	}
	return out
}

// TestJoinTableMatchesMap pins joinTable ≡ the map[uint64][]row every hash
// join used to build: for every hash (present or not) the candidate list is
// the same build rows — by id, and equal to what was added — in the same
// build order, under forced hash collisions (few distinct hashes), duplicate
// keys, NULL keys and an empty build, for the bulk build and the incremental
// one alike.
func TestJoinTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct {
		name      string
		rows      int
		keySpace  int64
		hashSpace uint64 // 0 = the real HashRow
		nullEvery int
	}{
		{"empty", 0, 1, 0, 0},
		{"one", 1, 1, 0, 0},
		{"unique", 500, 1 << 40, 0, 0},
		{"duplicates", 800, 20, 0, 0},
		{"nulls", 300, 50, 0, 4},
		{"all-null", 40, 5, 0, 1},
		{"collisions", 700, 1 << 30, 7, 0},
		{"one-hash", 200, 1 << 30, 1, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := make([]types.Row, tc.rows)
			for i := range rows {
				k := types.Int(rng.Int63n(tc.keySpace))
				if tc.nullEvery > 0 && i%tc.nullEvery == 0 {
					k = types.Null()
				}
				rows[i] = types.Row{types.Int(int64(i)), k}
			}
			hashOf := func(r types.Row) uint64 {
				h := types.HashRow(r[1:2])
				if tc.hashSpace > 0 {
					h %= tc.hashSpace
				}
				return h
			}
			// The map holds ids of rows; the incremental table skips NULL
			// keys, so its ids are positions among the keyed rows.
			want, wantIncr := map[uint64][]int{}, map[uint64][]int{}
			var keyedRows []types.Row
			for i, r := range rows {
				if !r[1].IsNull() {
					want[hashOf(r)] = append(want[hashOf(r)], i)
					wantIncr[hashOf(r)] = append(wantIncr[hashOf(r)], len(keyedRows))
					keyedRows = append(keyedRows, r)
				}
			}

			bulk := packRows(rows)
			bulk.reserve()
			clk := storage.NewClock(storage.DefaultCostModel())
			keyed := bulk.hashRange(0, len(rows), []int{1}, make([]types.Value, 1), clk, 2)
			for i, r := range rows { // force the collisions the real hash will not give
				if !r[1].IsNull() {
					bulk.hashes[i] = hashOf(r)
				}
			}
			bulk.link()
			ref := storage.NewClock(storage.DefaultCostModel())
			for range rows {
				ref.Probes(2)
			}
			if clk.UnitsScaled() != ref.UnitsScaled() {
				t.Errorf("build charged %d, want Probes(2) per row = %d", clk.UnitsScaled(), ref.UnitsScaled())
			}

			incr := &joinTable{}
			for _, r := range keyedRows {
				incr.add(r, hashOf(r))
			}
			if keyed != len(keyedRows) || bulk.rows.n != len(rows) || incr.rows.n != keyed {
				t.Errorf("hashRange reported %d keyed rows of %d held, want %d of %d; incremental holds %d",
					keyed, bulk.rows.n, len(keyedRows), len(rows), incr.rows.n)
			}

			probe := []uint64{0, 1, 12345, ^uint64(0)}
			for h := range want {
				probe = append(probe, h, h+1)
			}
			for _, h := range probe {
				if got := candidates(t, bulk, h, rows); !slices.Equal(got, want[h]) {
					t.Fatalf("bulk table, hash %d: candidates %v, map holds %v", h, got, want[h])
				}
				if got := candidates(t, incr, h, keyedRows); !slices.Equal(got, wantIncr[h]) {
					t.Fatalf("incremental table, hash %d: candidates %v, map holds %v", h, got, wantIncr[h])
				}
			}
		})
	}
}

// randomValue draws a value of any kind, edge cases included.
func randomValue(rng *rand.Rand) types.Value {
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 2.5, -1e300, 3}
	strs := []string{"", "x", "a string of more than thirty-two bytes, to be sure", "\x00"}
	switch rng.Intn(7) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(rng.Int63n(7) - 3)
	case 2:
		return types.Int(rng.Int63() - rng.Int63())
	case 3:
		return types.Float(floats[rng.Intn(len(floats))])
	case 4:
		return types.Str(strs[rng.Intn(len(strs))])
	case 5:
		return types.Bool(rng.Intn(2) == 0)
	}
	return types.Date(rng.Int63n(20000))
}

// sameValue is identity, not equality: kind, payload and — for floats — bits.
func sameValue(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestPackedRowsRoundTrip: whatever is added comes back — rows of width 0 to
// 9, counts crossing every chunk boundary of the ramp and the first full-size
// chunks, every kind of value, NULLs and float edge cases, kinds interleaved
// at random within one column. row(i) ≡ the row added, value(i, c) ≡
// row(i)[c], and the packed comparisons agree with the boxed ones.
func TestPackedRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for w := 0; w <= 9; w++ {
		var p packedRows
		var rows []types.Row
		var buf types.Row
		// Past the ramp and three chunks of the top size (a string column
		// crosses the slab's own ramp on the way).
		total := 1
		check := func(lo int) {
			for i := lo; i < len(rows); i++ {
				if p.row(i, &buf); len(buf) != w {
					t.Fatalf("w=%d: row %d has %d values", w, i, len(buf))
				}
				for c, v := range rows[i] {
					if !sameValue(buf[c], v) || !sameValue(p.value(i, c), v) {
						t.Fatalf("w=%d: row %d col %d reads %#v (value: %#v), added %#v", w, i, c, buf[c], p.value(i, c), v)
					}
				}
			}
		}
		for n := 0; n < total; n++ {
			r := make(types.Row, w)
			for c := range r {
				r[c] = randomValue(rng)
			}
			rows = append(rows, r)
			if err := p.add(r); err != nil || p.n != len(rows) {
				t.Fatalf("w=%d: add %d: n=%d, %v", w, n, p.n, err)
			}
			if n == 0 {
				total = packedBase*(1<<(2*p.top)-1)/3 + 3*chunkLen(p.top, p.top) + 5
				if w == 0 {
					total = 100
				}
			}
			if k, off := chunkOf(n, p.top); off == 0 || n == total-1 { // a chunk just opened: everything before still reads back
				if w > 0 && (k != len(p.data)-1 || len(p.data[k]) > packedMaxChunk) {
					t.Fatalf("w=%d: row %d sits in chunk %d of %d (%d B)", w, n, k, len(p.data), len(p.data[k]))
				}
				check(max(0, n-2*packedBase))
			}
		}
		check(0)
		if w == 0 {
			continue
		}
		// Comparisons: every key against rows of its own and of other kinds.
		cols := []int{w - 1, 0}
		for trial := 0; trial < 4000; trial++ {
			i := rng.Intn(len(rows))
			key := []types.Value{randomValue(rng), randomValue(rng)}
			if trial%2 == 0 { // an equal key, perhaps of another numeric kind
				key = []types.Value{rows[rng.Intn(len(rows))][cols[0]], rows[i][cols[1]]}
				if key[1].K == types.KindInt {
					key[1] = types.Float(float64(key[1].I))
				}
			}
			boxed := types.Row{}
			got := p.match(key, i, cols, &boxed)
			if want := keyMatches(key, rows[i], cols); got != want || (got && boxed.String() != rows[i].String()) || (!got && len(boxed) != 0) {
				t.Fatalf("w=%d: packed match(%v, row %d = %v) = %v, %v; keyMatches %v", w, key, i, rows[i], boxed, got, want)
			}
		}
	}
}

// BenchmarkPackedRows reports what keeping a value costs at both ends of the
// chunk ramp: bytes allocated per value (9 packed, 25 for a string, plus the
// last chunk's spare room) and nanoseconds to pack it and to box it again.
func BenchmarkPackedRows(b *testing.B) {
	for _, shape := range []struct {
		name string
		row  types.Row
	}{
		{"int+int", types.Row{types.Int(0), types.Int(7)}},
		{"int+string", types.Row{types.Int(0), types.Str("BUILDING")}},
	} {
		for _, n := range []int{25, 1200, 48000} {
			b.Run(fmt.Sprintf("%s/rows=%d", shape.name, n), func(b *testing.B) {
				row, values := shape.row.Clone(), float64(n*len(shape.row))
				var buf types.Row
				var add, box time.Duration
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					var p packedRows
					t0 := time.Now()
					for j := 0; j < n; j++ {
						row[0].I = int64(j)
						p.add(row)
					}
					t1 := time.Now()
					for j := 0; j < n; j++ {
						p.row(j, &buf)
					}
					add, box = add+t1.Sub(t0), box+time.Since(t1)
				}
				runtime.ReadMemStats(&after)
				per := float64(b.N) * values
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/value")
				b.ReportMetric(float64(add.Nanoseconds())/per, "add-ns/value")
				b.ReportMetric(float64(box.Nanoseconds())/per, "row-ns/value")
			})
		}
	}
}

// TestJoinProbeMatchesNaive runs the shared prober against a brute-force
// nested loop on keys with duplicates and NULLs on both sides, inner and
// left outer: same rows, same order (probe order, then build order).
func TestJoinProbeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int) []types.Row {
		rows := make([]types.Row, n)
		for i := range rows {
			k := types.Int(rng.Int63n(12))
			if rng.Intn(6) == 0 {
				k = types.Null()
			}
			rows[i] = types.Row{k, types.Int(int64(i))}
		}
		return rows
	}
	build, probe := mk(60), mk(90)
	for _, outer := range []bool{false, true} {
		var want []string
		for _, l := range probe {
			matched := false
			for _, r := range build {
				if !l[0].IsNull() && !r[0].IsNull() && types.Equal(l[0], r[0]) {
					matched = true
					want = append(want, types.Concat(l, r).String())
				}
			}
			if outer && !matched {
				want = append(want, types.Concat(l, types.Row{types.Null(), types.Null()}).String())
			}
		}
		node := testJoinNode(outer)
		ctx := NewContext()
		b := &hashStage{hashBuild: hashBuild{ctx: ctx, node: node}, right: &sliceOp{rows: build}}
		if err := b.openBuild(); err != nil {
			t.Fatal(err)
		}
		p := b.prober()
		var got []string
		for _, l := range probe {
			if err := p.each(ctx.Clock, l, func(r types.Row) error {
				got = append(got, r.String())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		b.release()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("outer=%v: prober emitted %d rows, nested loop %d", outer, len(got), len(want))
		}
	}
}

// TestRowArena pins the arena's three promises: copies never alias each
// other or their source, they survive any number of chunk turnovers, and a
// small result pays no more than Row.Clone did.
func TestRowArena(t *testing.T) {
	var a RowArena
	src := types.Row{types.Int(1), types.Str("x"), types.Float(2.5)}
	var kept []types.Row
	for i := 0; i < 3*arenaMaxChunk; i++ { // many chunks
		src[0] = types.Int(int64(i))
		kept = append(kept, a.Copy(src))
	}
	for i, r := range kept {
		if len(r) != 3 || r[0].I != int64(i) || r[1].S != "x" || r[2].F != 2.5 {
			t.Fatalf("row %d changed after later copies: %v", i, r)
		}
	}
	// Writing through one copy, or appending to it, must not reach a
	// neighbour (capacity is clipped) or the source.
	kept[10][0] = types.Int(-1)
	grown := append(kept[10], types.Int(99))
	if kept[9][0].I != 9 || kept[11][0].I != 11 || src[0].I != int64(3*arenaMaxChunk-1) {
		t.Error("a write through one arena row reached another row")
	}
	if grown[3].I != 99 || kept[11][0].I != 11 {
		t.Error("append to an arena row overwrote its neighbour")
	}
	if r := a.Copy(nil); len(r) != 0 {
		t.Errorf("copy of an empty row has %d values", len(r))
	}

	// Small results (a point lookup's one to four rows) must not pay for the
	// arena: against the drain it replaced — Row.Clone per row — no more
	// bytes beyond a small constant and no more allocations.
	var sink []types.Row
	measure := func(drain func(Operator) []types.Row, rows []types.Row) (bytes, allocs uint64) {
		op := &sliceOp{rows: rows}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sink = drain(op)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	arenaDrain := func(op Operator) []types.Row {
		out, _ := drain(op)
		return out
	}
	cloneDrain := func(op Operator) []types.Row {
		var out []types.Row
		op.Open()
		for r, ok, _ := op.Next(); ok; r, ok, _ = op.Next() {
			out = append(out, r.Clone())
		}
		return out
	}
	for _, n := range []int{1, 2, 3, 4, 12} {
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = src
		}
		gotB, gotA := measure(arenaDrain, rows)
		wantB, wantA := measure(cloneDrain, rows)
		slack := uint64(64)
		if n&(n-1) != 0 { // not a power of two: the tail chunk has room to spare
			slack += uint64(n*len(src)) * uint64(unsafe.Sizeof(types.Value{})) / 2
		}
		if gotB > wantB+slack || gotA > wantA {
			t.Errorf("%d-row drain: %d B in %d allocations; cloning took %d B in %d", n, gotB, gotA, wantB, wantA)
		}
	}
	_ = sink
}

// testJoinNode is a two-column ⋈ two-column equi-join on column 0.
func testJoinNode(outer bool) *plan.JoinNode {
	side := types.Schema{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}
	n := &plan.JoinNode{Alg: plan.JoinHash, Type: plan.Inner, LeftKeys: []int{0}, RightKeys: []int{0}}
	if outer {
		n.Type = plan.LeftOuter
	}
	n.Kids = []plan.Node{
		&plan.TempScanNode{Base: plan.Base{Out: side}},
		&plan.TempScanNode{Base: plan.Base{Out: side}},
	}
	n.Out = side.Concat(side)
	return n
}
