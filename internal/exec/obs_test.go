package exec

import (
	"errors"
	"fmt"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/types"
)

func planFor(t *testing.T, cat *catalog.Catalog, q string) plan.Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
	if err != nil {
		t.Fatal(err)
	}
	root, err := opt.New(cat).Optimize(bq, nil)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// countActuals runs the plan and tallies OnActual invocations per node.
func countActuals(t *testing.T, root plan.Node) map[plan.Node]int {
	t.Helper()
	ctx := NewContext()
	fired := map[plan.Node]int{}
	ctx.OnActual = func(n plan.Node, actual float64) { fired[n]++ }
	if _, err := Run(root, ctx); err != nil {
		t.Fatal(err)
	}
	return fired
}

// TestOnActualOncePerNodeDrained: draining a plan to exhaustion fires the
// feedback hook exactly once per node.
func TestOnActualOncePerNodeDrained(t *testing.T) {
	cat := testDB(t)
	root := planFor(t, cat, "SELECT id FROM t WHERE grp = 3 ORDER BY id")
	fired := countActuals(t, root)
	nodes := 0
	plan.Walk(root, func(n plan.Node) {
		nodes++
		if fired[n] != 1 {
			t.Errorf("node %s: OnActual fired %d times, want 1", n.Label(), fired[n])
		}
	})
	if len(fired) != nodes {
		t.Fatalf("OnActual fired for %d nodes, plan has %d", len(fired), nodes)
	}
}

// TestOnActualOncePerNodeEarlyClose: a LIMIT closes its child pipeline
// before exhaustion; every node must still report exactly once.
func TestOnActualOncePerNodeEarlyClose(t *testing.T) {
	cat := testDB(t)
	root := planFor(t, cat, "SELECT id FROM t LIMIT 3")
	limitSeen := false
	plan.Walk(root, func(n plan.Node) {
		if _, ok := n.(*plan.LimitNode); ok {
			limitSeen = true
		}
	})
	if !limitSeen {
		t.Fatal("plan has no LimitNode; test needs an early-close pipeline")
	}
	fired := countActuals(t, root)
	plan.Walk(root, func(n plan.Node) {
		if fired[n] != 1 {
			t.Errorf("node %s: OnActual fired %d times, want 1", n.Label(), fired[n])
		}
	})
}

// failingOp errors from Next and from Close, to prove Run surfaces both.
type failingOp struct{ nextErr, closeErr error }

func (f *failingOp) Open() error                    { return nil }
func (f *failingOp) Next() (types.Row, bool, error) { return nil, false, f.nextErr }
func (f *failingOp) Close() error                   { return f.closeErr }

// TestRunSurfacesCloseError: when Next fails, a Close failure must be
// joined onto the returned error, not silently discarded.
func TestRunSurfacesCloseError(t *testing.T) {
	nextErr := errors.New("next exploded")
	closeErr := errors.New("close exploded")
	_, err := drain(&failingOp{nextErr: nextErr, closeErr: closeErr})
	if !errors.Is(err, nextErr) {
		t.Fatalf("error %v does not wrap the Next failure", err)
	}
	if !errors.Is(err, closeErr) {
		t.Fatalf("error %v does not wrap the Close failure", err)
	}
	// With a clean Close the original error must come back untouched, so
	// callers' direct comparisons (e.g. err == ErrCanceled) keep working.
	_, err = drain(&failingOp{nextErr: nextErr})
	if err != nextErr {
		t.Fatalf("error = %v, want the bare Next failure", err)
	}
}

// TestMemBrokerOvercommit: the progress floor can push inUse past the
// budget; the broker must count it instead of hiding it.
func TestMemBrokerOvercommit(t *testing.T) {
	m := NewMemBroker(10)
	g := m.Grant(50) // avail 10 < floor 16 → overcommit
	if g != 16 {
		t.Fatalf("grant = %d, want floor 16", g)
	}
	if m.InUse() != 16 {
		t.Fatalf("inUse = %d, want 16", m.InUse())
	}
	if brokerRecord(m).Overcommits != 1 {
		t.Fatalf("overcommits = %d, want 1", brokerRecord(m).Overcommits)
	}
	if brokerRecord(m).PeakMemRows != 16 {
		t.Fatalf("peak = %d, want 16", brokerRecord(m).PeakMemRows)
	}
	m.Release(16)
	if brokerRecord(m).Overcommits != 1 {
		t.Fatal("release must not change the overcommit count")
	}
	// A grant inside budget is not an overcommit.
	if g := m.Grant(5); g != 5 {
		t.Fatalf("grant = %d, want 5", g)
	}
	if brokerRecord(m).Overcommits != 1 {
		t.Fatalf("overcommits = %d, want still 1", brokerRecord(m).Overcommits)
	}
}

// TestMemBrokerEvents: grant/release decisions reach the observer hook.
func TestMemBrokerEvents(t *testing.T) {
	m := NewMemBroker(100)
	var log []string
	m.OnEvent = func(kind string, rows, inUse, budget int) {
		log = append(log, fmt.Sprintf("%s:%d:%d:%d", kind, rows, inUse, budget))
	}
	m.Grant(20)
	m.Release(20)
	want := []string{"grant:20:20:100", "release:20:0:100"}
	if len(log) != 2 || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("event log = %v, want %v", log, want)
	}
}

// TestTraceSpansRecorded: a traced run produces a span per plan node with
// actual rows and nonzero root cost.
func TestTraceSpansRecorded(t *testing.T) {
	cat := testDB(t)
	root := planFor(t, cat, "SELECT grp, COUNT(*) FROM t GROUP BY grp")
	ctx := NewContext()
	tr := obs.NewTrace(ctx.Clock)
	ctx.Trace = tr
	rows, err := Run(root, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if len(tr.Roots()) != 1 {
		t.Fatalf("fragments = %d, want 1", len(tr.Roots()))
	}
	plan.Walk(root, func(n plan.Node) {
		s := tr.SpanOf(n)
		if s == nil {
			t.Fatalf("node %s has no span", n.Label())
		}
		if s.ActualRows() < 0 {
			t.Errorf("node %s: span never finished", n.Label())
		}
		if s.ActualRows() != n.Props().ActualRows() {
			t.Errorf("node %s: span actual %v != props actual %v", n.Label(), s.ActualRows(), n.Props().ActualRows())
		}
	})
	rootSpan := tr.SpanOf(root)
	if rootSpan.Cost() <= 0 {
		t.Fatal("root span accrued no cost")
	}
	// Inclusive costs: the root's cost must cover its children's.
	for _, c := range rootSpan.Children() {
		if c.Cost() > rootSpan.Cost()+1e-9 {
			t.Fatalf("child cost %v exceeds root cost %v", c.Cost(), rootSpan.Cost())
		}
	}
}
