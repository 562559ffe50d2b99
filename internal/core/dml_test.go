package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
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

// contents renders the heap, RIDs included, and every index: its entry
// count and, in its key order, the RIDs a scan visits — all but those whose
// leading key is NULL — each with its row's key while the row lives (a
// dropped index keeps entries for rows deleted since).
func contents(e *Engine) string {
	var sb strings.Builder
	tb, _ := e.Cat.Table("d")
	tb.Heap.Scan(nil, func(rid storage.RID, r types.Row) bool {
		fmt.Fprintf(&sb, "%d %v\n", rid, r)
		return true
	})
	for _, ix := range tb.Indexes {
		fmt.Fprintf(&sb, "-- %s dropped=%v entries=%d\n", ix.Name, ix.Dropped, ix.Tree.Len())
		ix.Tree.Scan(nil, index.Bound{}, index.Bound{}, func(rid storage.RID) bool {
			r, live := tb.Heap.Get(nil, rid, nil)
			fmt.Fprintf(&sb, "%d", rid)
			for _, c := range ix.Cols {
				if live {
					fmt.Fprintf(&sb, " %v", r[c])
				}
			}
			sb.WriteByte('\n')
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

// TestUniqueIndexThroughSQL: a UNIQUE index is enforced at CREATE INDEX, at
// INSERT and at an UPDATE of its key column, over the statement as a whole:
// a refused statement of one row or of many leaves the heap and every index
// as they were, though its first rows alone repeat no key, and a statement
// whose rows trade keys among themselves is no repeat. NULL keys may repeat.
func TestUniqueIndexThroughSQL(t *testing.T) {
	e := dmlEngine(t)
	if _, err := e.Exec("CREATE UNIQUE INDEX d_gu ON d (g)"); err == nil {
		t.Error("CREATE UNIQUE INDEX over repeated keys succeeded")
	}
	before := contents(e)
	for _, bad := range []string{
		"INSERT INTO d VALUES (5, 1, 1.0, 'x')",
		"UPDATE d SET k = 6 WHERE k = 5",
		"INSERT INTO d VALUES (1000, 1, 1.0, 'x'), (5, 1, 1.0, 'x')",    // the second is held
		"INSERT INTO d VALUES (1000, 1, 1.0, 'x'), (1000, 2, 1.0, 'y')", // the rows share one
		"UPDATE d SET k = 99 WHERE k < 3",                               // held by a row outside
		"UPDATE d SET k = 1000 WHERE k < 3",                             // the rows share one
		"UPDATE d SET k = k + 1 WHERE k < 3",                            // the last takes row 3's
		"UPDATE d SET k = k + 1 WHERE k >= 397 AND k <= 398",            // the last takes row 399's
	} {
		if _, err := e.Exec(bad); err == nil || !strings.Contains(err.Error(), "d_k") {
			t.Errorf("%s: %v, want a duplicate key in d_k", bad, err)
		}
		if contents(e) != before {
			t.Errorf("%s changed the table", bad)
		}
	}
	if _, err := e.Exec("INSERT INTO d VALUES (1000, 1, 1.0, 'x'), (1001, 1, 's' + 1, 'x')"); err == nil {
		t.Error("an INSERT row that cannot be evaluated must fail the statement")
	}
	if contents(e) != before {
		t.Error("a failed multi-row INSERT changed the table")
	}
	for _, ok := range []string{
		"UPDATE d SET k = k + 1 WHERE k >= 397", // 397..399 shift up, each into a key given up
		"UPDATE d SET k = 1 - k WHERE k <= 1",   // 0 and 1 swap
		"INSERT INTO d VALUES (2000, 1, 1.0, 'x'), (2001, 1, 1.0, 'x')",
		"UPDATE d SET k = 5, v = 2.5 WHERE k = 5", // its own key
		"UPDATE d SET k = 1000 WHERE k = 5",
		"INSERT INTO d VALUES (5, 1, 1.0, 'x')",
		"CREATE TABLE n (k int)",
		"CREATE UNIQUE INDEX n_k ON n (k)",
		"INSERT INTO n VALUES (NULL)",
		"INSERT INTO n VALUES (NULL)",
	} {
		if _, err := e.Exec(ok); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
	if r := e.MustExec("SELECT COUNT(*) FROM d WHERE k = 5 OR k = 1000"); r.Rows[0][0].I != 2 {
		t.Errorf("keys 5 and 1000 hold %v rows, want 2", r.Rows[0][0])
	}
	if r := e.MustExec("SELECT k, v FROM d WHERE k IN (0, 1, 397, 398, 399, 400, 2000, 2001) ORDER BY k"); fmt.Sprint(r.Rows) != "[(0, 1) (1, 0) (398, 1) (399, 2) (400, 3) (2000, 1) (2001, 1)]" {
		t.Errorf("keys after the shift, swap and insert: %v", r.Rows)
	}
	tb, _ := e.Cat.Table("d")
	for _, ix := range tb.Indexes {
		if err := ix.Tree.CheckInvariants(); err != nil || ix.Tree.Len() != int(tb.Heap.NumRows()) {
			t.Errorf("%s: %v, %d entries for %d rows", ix.Name, err, ix.Tree.Len(), tb.Heap.NumRows())
		}
	}
}

// TestIndexConcurrentDML: one session cycles keyed INSERT, UPDATE and DELETE
// over orders of its own while two more read the others through the same
// primary-key tree: lookups and a range scan. The writer's inserts split
// leaves and inner nodes under the readers' descent, so under -race this pins
// that a B+ tree is only read under its lock; the readers' rows pin that they
// never see a half-written node.
func TestIndexConcurrentDML(t *testing.T) {
	_, e := lookupEngines(t, 1)
	const scan = "SELECT COUNT(*) FROM orders WHERE o_orderkey >= 100 AND o_orderkey < 104"
	want := make([]string, 400)
	for k := range want {
		r := e.MustExec(lookupOrder, types.Int(int64(k)))
		if want[k] = fmt.Sprint(r.Rows); len(r.Rows) != 1 || !strings.Contains(r.Plan, "IndexScan(orders.orders_pk)") {
			t.Fatalf("key %d: %d rows, plan\n%s", k, len(r.Rows), r.Plan)
		}
	}
	if p := e.MustExec(scan).Plan; !strings.Contains(p, "IndexScan(orders.orders_pk)") {
		t.Fatalf("the range reads no index:\n%s", p)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for round := 0; round < 4; round++ {
			for _, stmt := range []string{
				"INSERT INTO orders VALUES (?, 1, DATE(8100), 10.5)",
				"UPDATE orders SET o_totalprice = 99.5 WHERE o_orderkey = ?",
				"DELETE FROM orders WHERE o_orderkey = ?",
			} {
				// Fresh keys a batch at a time, so that the inserts split nodes.
				for k := 5000 + 200*round; k < 5200+200*round; k++ {
					if _, err := e.Exec(stmt, types.Int(int64(k))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; !done.Load(); n++ {
				k := (7*n + s) % len(want)
				r, err := e.Exec(lookupOrder, types.Int(int64(k)))
				if err != nil || fmt.Sprint(r.Rows) != want[k] {
					t.Errorf("session %d, key %d: %v, %v", s, k, r, err)
					return
				}
				if r, err = e.Exec(scan); err != nil || r.Rows[0][0].I != 4 {
					t.Errorf("session %d, range scan: %v, %v", s, r, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	tb, _ := e.Cat.Table("orders")
	if err := tb.Indexes[0].Tree.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
