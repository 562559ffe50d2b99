package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rqp/internal/index"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// dmlEngine holds 400 rows under a unique index on k, a non-unique one on
// g (20 values), a two-column one on (s, g) and none on v.
func dmlEngine(t *testing.T) *Engine {
	t.Helper()
	e := Open(DefaultConfig())
	e.MustExec("CREATE TABLE d (k int, g int, v float, s varchar)")
	for i := 0; i < 400; i++ {
		g := types.Int(int64(i % 20))
		if i%50 == 7 {
			g = types.Null()
		}
		e.MustExec("INSERT INTO d VALUES (?, ?, ?, ?)", types.Int(int64(i)), g, types.Float(float64(i%9)), types.Str(fmt.Sprintf("s%d", i%30)))
	}
	e.MustExec("CREATE UNIQUE INDEX d_k ON d (k)")
	e.MustExec("CREATE INDEX d_g ON d (g)")
	e.MustExec("CREATE INDEX d_sg ON d (s, g)")
	return e
}

// contents renders the heap, RIDs included, and every live index entry.
func contents(e *Engine) string {
	var sb strings.Builder
	tb, _ := e.Cat.Table("d")
	tb.Heap.Scan(nil, func(rid storage.RID, r types.Row) bool {
		fmt.Fprintf(&sb, "%d %v\n", rid, r)
		return true
	})
	for _, ix := range tb.Indexes {
		fmt.Fprintf(&sb, "-- %s dropped=%v\n", ix.Name, ix.Dropped)
		ix.Tree.Scan(nil, index.Bound{}, index.Bound{}, func(en index.Entry) bool {
			fmt.Fprintf(&sb, "%v %d\n", en.Key, en.RID)
			return true
		})
	}
	return sb.String()
}

// TestKeyedDMLMatchesScan: an UPDATE or DELETE whose WHERE names an index key
// fetches its rows through the index, and leaves the heap and every index
// exactly as the same statement does when it has to scan — here the same
// predicate hidden from the helper under a redundant OR.
func TestKeyedDMLMatchesScan(t *testing.T) {
	keyed, scan := dmlEngine(t), dmlEngine(t)
	rng := rand.New(rand.NewSource(5))
	null := types.Null()
	type form struct {
		where string // %s: a key value as a literal or a ?
		key   func() types.Value
		cols  string // the columns it names a key of
	}
	forms := []form{
		{"k = %s", func() types.Value { return types.Int(rng.Int63n(400)) }, "k"},                             // unique
		{"g = %s", func() types.Value { return types.Int(rng.Int63n(20)) }, "g"},                              // non-unique
		{"%s = g", func() types.Value { return types.Int(rng.Int63n(20)) }, "g"},                              // literal on the left
		{"g = %s AND v > 3", func() types.Value { return types.Int(rng.Int63n(20)) }, "g"},                    // key and residual
		{"v < 5 AND k = %s", func() types.Value { return types.Int(rng.Int63n(400)) }, "k"},                   // key second
		{"s = %s", func() types.Value { return types.Str(fmt.Sprintf("s%d", rng.Intn(30))) }, "s"},            // leading column of two
		{"k = %s", func() types.Value { return types.Int(1000 + rng.Int63n(9)) }, "k"},                        // absent
		{"k = %s", func() types.Value { return types.Float(float64(rng.Int63n(400))) }, "k"},                  // 7.0 finds 7
		{"g = %s", func() types.Value { return null }, "g"},                                                   // NULL key: no row
		{"(k = %s OR g = 3)", func() types.Value { return types.Int(rng.Int63n(400)) }, ""},                   // OR must scan
		{"v = %s", func() types.Value { return types.Float(float64(rng.Intn(9))) }, ""},                       // no index
		{"k >= %s AND k <= 5", func() types.Value { return types.Int(rng.Int63n(6)) }, ""},                    // a range is not a key
		{"g <> %s", func() types.Value { return types.Int(rng.Int63n(20)) }, ""},                              // nor an inequality
		{"k = %s AND (g = 1 OR g <> 1 OR g IS NULL)", func() types.Value { return types.Int(400) }, "kg"},     // a row inserted below
		{"g = %s AND s = 'fresh'", func() types.Value { return types.Int(rng.Int63n(20)) }, "gs"},             // two keys: the first
		{"s = %s AND g = 4", func() types.Value { return types.Str(fmt.Sprintf("s%d", rng.Intn(30))) }, "gs"}, // both index columns
	}
	// fetches runs one statement and returns the rows it affected and the
	// random reads it was charged: index descents and row fetches, which a
	// heap scan has none of.
	fetches := func(e *Engine, sql string, params []types.Value) (int, int64) {
		_, before, _, _ := e.Clock.Counters()
		res, err := e.Exec(sql, params...)
		if err != nil {
			t.Fatalf("%s %v: %v", sql, params, err)
		}
		_, after, _, _ := e.Clock.Counters()
		return res.Affected, after - before
	}
	indexed, total := 0, 0
	for round := 0; round < 6; round++ {
		if round == 3 { // d_g goes: its statements scan from here on, d_sg still serves s
			keyed.MustExec("DROP INDEX d_g ON d")
			scan.MustExec("DROP INDEX d_g ON d")
		}
		for i, f := range forms {
			key := f.key()
			viaIdx := strings.ContainsAny(f.cols, "ks") || round < 3 && f.cols == "g"
			for _, verb := range []string{"UPDATE d SET v = v + 1, g = g WHERE ", "UPDATE d SET k = k + 5000 WHERE ", "DELETE FROM d WHERE "} {
				if strings.Contains(verb, "k + 5000") && i%3 != round%3 {
					continue // moving keys out of reach empties the table too fast
				}
				lit, params := key.String(), []types.Value(nil)
				if (i+round)%2 == 0 || key.IsNull() {
					lit, params = "?", []types.Value{key}
				}
				where := fmt.Sprintf(f.where, lit)
				gotN, gotFetches := fetches(keyed, verb+where, params)
				wantN, scanFetches := fetches(scan, verb+"("+where+" OR "+where+")", append(params, params...))
				what := fmt.Sprintf("round %d: %s%s %v", round, verb, where, params)
				if gotN != wantN {
					t.Fatalf("%s: %d rows affected, %d by the scan", what, gotN, wantN)
				}
				if got, want := contents(keyed), contents(scan); got != want {
					t.Fatalf("%s: table or indexes differ from the scan path's", what)
				}
				total++
				if viaIdx {
					indexed++
				}
				if (gotFetches > 0) != viaIdx || scanFetches != 0 {
					t.Errorf("%s: %d random reads (under the OR: %d), want the index taken = %v", what, gotFetches, scanFetches, viaIdx)
				}
			}
		}
		for i := 0; i < 40; i++ { // refill, keys from 400 up
			row := []types.Value{types.Int(int64(400 + round*40 + i)), types.Int(int64(i % 20)), types.Float(float64(i % 9)), types.Str("fresh")}
			keyed.MustExec("INSERT INTO d VALUES (?, ?, ?, ?)", row...)
			scan.MustExec("INSERT INTO d VALUES (?, ?, ?, ?)", row...)
		}
	}
	if indexed < total/4 {
		t.Errorf("only %d of %d statements were checked to take the index", indexed, total)
	}
	tb, _ := keyed.Cat.Table("d")
	for _, ix := range tb.Indexes {
		if err := ix.Tree.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", ix.Name, err)
		}
	}
}

// TestKeyedDMLErrors: a keyed statement reports what a scanning one does when
// its predicate or an assignment fails on a row it reaches.
func TestKeyedDMLErrors(t *testing.T) {
	e := dmlEngine(t)
	if _, err := e.Exec("DELETE FROM d WHERE k = ?"); err == nil {
		t.Error("a missing parameter must fail the statement")
	}
	before := contents(e)
	if _, err := e.Exec("UPDATE d SET v = s + 1 WHERE g = 3"); err == nil {
		t.Error("an assignment that cannot be evaluated must fail the statement")
	}
	if contents(e) != before {
		t.Error("a failed UPDATE changed the table")
	}
}
