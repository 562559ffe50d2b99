package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// candidates enumerates the rows a probe of hash h visits, in order.
func candidates(t *joinTable, h uint64) []types.Row {
	var out []types.Row
	for i := t.first(h); i >= 0; i = t.after(i, h) {
		out = append(out, t.rows[i])
	}
	return out
}

func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Identity, not equality: duplicates must come back as the very build
		// rows the map held, in the same order.
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && &a[i][0] != &b[i][0]) {
			return false
		}
	}
	return true
}

// TestJoinTableMatchesMap pins joinTable ≡ the map[uint64][]types.Row every
// hash join used to build: for every hash (present or not) the candidate
// list is the same rows in the same build order — under forced hash
// collisions (few distinct hashes), duplicate keys, NULL keys and an empty
// build, for the bulk build and the incremental one alike.
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
			want := map[uint64][]types.Row{}
			for _, r := range rows {
				if !r[1].IsNull() {
					want[hashOf(r)] = append(want[hashOf(r)], r)
				}
			}

			bulk := newJoinTable(rows)
			clk := storage.NewClock(storage.DefaultCostModel())
			keyed := bulk.hashRange(0, len(rows), []int{1}, clk, 2)
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

			incr := newJoinTable(nil)
			nkeyed := 0
			for _, r := range rows {
				if !r[1].IsNull() {
					incr.add(r, hashOf(r))
					nkeyed++
				}
			}
			if keyed != nkeyed {
				t.Errorf("hashRange reported %d keyed rows, want %d", keyed, nkeyed)
			}

			probe := []uint64{0, 1, 12345, ^uint64(0)}
			for h := range want {
				probe = append(probe, h, h+1)
			}
			for _, h := range probe {
				if got := candidates(bulk, h); !sameRows(got, want[h]) {
					t.Fatalf("bulk table, hash %d: %d candidates %v, map holds %d %v", h, len(got), got, len(want[h]), want[h])
				}
				if got := candidates(incr, h); !sameRows(got, want[h]) {
					t.Fatalf("incremental table, hash %d: %d candidates %v, map holds %d %v", h, len(got), got, len(want[h]), want[h])
				}
			}
		})
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
		b := hashBuild{ctx: ctx, node: node}
		b.open(build)
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
