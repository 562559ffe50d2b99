package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rqp/internal/storage"
)

// funcSink adapts a function to a query sink.
type funcSink func(rec QueryRecord)

func (f funcSink) WriteQuery(rec QueryRecord) { f(rec) }

// begin registers a new statement with r, traced by tr when non-nil.
func begin(r *QueryRegistry, tr *Trace, sql, policy string) *QueryState {
	q := &QueryState{}
	r.Begin(q, tr, sql, policy)
	return q
}

// finish gives q's record the engine's numbers in eng (the ones these tests
// set), finishes q with err, and returns the completed record. The record's
// identity is left alone: pollers read it concurrently.
func finish(r *QueryRegistry, q *QueryState, err error, eng QueryRecord) QueryRecord {
	rec := &q.Record
	rec.RowCount, rec.Cost, rec.Reopts, rec.SpillParts, rec.SpillRows = eng.RowCount, eng.Cost, eng.Reopts, eng.SpillParts, eng.SpillRows
	r.Finish(q, err)
	return *rec
}

func TestPhaseForwardOnly(t *testing.T) {
	r := NewQueryRegistry(4, nil)
	q := begin(r, nil, "SELECT 1", "classic")
	if q.Phase() != PhaseQueued {
		t.Fatalf("new query phase = %s, want queued", q.Phase())
	}
	q.SetPhase(PhaseRunning)
	q.SetPhase(PhaseAdmitted) // backwards: ignored
	if q.Phase() != PhaseRunning {
		t.Fatalf("phase moved backwards to %s", q.Phase())
	}
	q.SetPhase(PhaseSpilling)
	if q.Phase() != PhaseSpilling {
		t.Fatalf("phase = %s, want spilling", q.Phase())
	}
	if q.Phase() >= PhaseDone {
		t.Fatal("spilling must not be terminal")
	}
	finish(r, q, nil, QueryRecord{})
	if q.Phase() != PhaseDone {
		t.Fatalf("finished phase = %s, want done", q.Phase())
	}
}

func TestFinishOutcomes(t *testing.T) {
	r := NewQueryRegistry(8, nil)

	ok := finish(r, begin(r, nil, "SELECT 1", "classic"), nil, QueryRecord{RowCount: 3})
	if ok.Outcome != "done" || ok.RowCount != 3 {
		t.Fatalf("success record = %+v", ok)
	}

	bad := finish(r, begin(r, nil, "SELECT broken", "classic"), errors.New("boom"), QueryRecord{})
	if bad.Outcome != "failed" || bad.Error != "boom" {
		t.Fatalf("failure record = %+v", bad)
	}

	rej := begin(r, nil, "SELECT 1", "classic")
	rej.SetPhase(PhaseRejected)
	// A rejection is an error exit too, but Rejected must stick.
	rec := finish(r, rej, errors.New("admission rejected"), QueryRecord{})
	if rec.Outcome != "rejected" {
		t.Fatalf("rejected outcome = %q", rec.Outcome)
	}

	if n := len(r.Active()); n != 0 {
		t.Fatalf("%d queries still active after finish", n)
	}
}

func TestRegistryRingAndRecent(t *testing.T) {
	r := NewQueryRegistry(3, nil)
	for i := 0; i < 5; i++ {
		finish(r, begin(r, nil, fmt.Sprintf("SELECT %d", i), "classic"), nil, QueryRecord{RowCount: i})
	}
	recent := r.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring kept %d records, want 3", len(recent))
	}
	// Newest first: queries 5, 4, 3 (IDs are 1-based).
	for i, wantID := range []uint64{5, 4, 3} {
		if recent[i].ID != wantID {
			t.Fatalf("recent[%d].ID = %d, want %d", i, recent[i].ID, wantID)
		}
	}
}

func TestRegistryMetricsAndSink(t *testing.T) {
	m := NewRegistry()
	r := NewQueryRegistry(4, m)
	base := time.Unix(1000, 0)
	r.now = func() time.Time { return base }

	var logged []QueryRecord
	r.SetSink(funcSink(func(rec QueryRecord) { logged = append(logged, rec) }))

	q := begin(r, nil, "SELECT 1", "pop")
	if got := m.Gauge("rqp_queries_active").Value(); got != 1 {
		t.Fatalf("active gauge = %v, want 1", got)
	}
	base = base.Add(250 * time.Millisecond)
	finish(r, q, nil, QueryRecord{RowCount: 7, Cost: 12.5, SpillParts: 2})

	if got := m.Gauge("rqp_queries_active").Value(); got != 0 {
		t.Fatalf("active gauge after finish = %v, want 0", got)
	}
	if n := m.Histogram("rqp_query_latency_ms", LatencyBuckets).Count(); n != 1 {
		t.Fatalf("latency histogram count = %d, want 1", n)
	}
	if v := m.Counter("rqp_queries_finished_total", L("outcome", "done")).Value(); v != 1 {
		t.Fatalf("finished counter = %d, want 1", v)
	}
	if len(logged) != 1 {
		t.Fatalf("sink received %d records, want 1", len(logged))
	}
	rec := logged[0]
	if rec.DurationMS != 250 || rec.Cost != 12.5 || rec.SpillParts != 2 {
		t.Fatalf("sink record = %+v", rec)
	}
}

func TestActiveProgressFromTrace(t *testing.T) {
	r := NewQueryRegistry(4, nil)
	clock := storage.NewClock(storage.DefaultCostModel())
	tr := NewTrace(clock)
	scan := fakeNode("Scan(r)", 100)
	tr.AddFragment(scan)
	q := begin(r, tr, "SELECT * FROM r", "classic")
	q.SetPhase(PhaseRunning)

	snap := func() ActiveQuery {
		act := r.Active()
		if len(act) != 1 {
			t.Fatalf("active = %d, want 1", len(act))
		}
		return act[0]
	}

	before := snap()
	if before.Progress != 0 || before.EstRows != 100 {
		t.Fatalf("initial progress = %+v", before)
	}
	tr.SpanOf(scan).AddRows(30)
	mid := snap()
	if mid.Progress <= before.Progress || mid.DoneRows != 30 {
		t.Fatalf("progress did not advance: %+v -> %+v", before, mid)
	}
	// Actuals beyond the estimate clamp at 1.0 rather than overflowing.
	tr.SpanOf(scan).AddRows(200)
	after := snap()
	if after.Progress != 1 {
		t.Fatalf("overflowed progress = %v, want clamp at 1", after.Progress)
	}

	// A spill event flips the phase via the trace hook.
	tr.Event("spill.partition", "parts=4")
	if got := snap().Phase; got != "spilling" {
		t.Fatalf("phase after spill event = %q, want spilling", got)
	}
}

func TestActiveUntracedProgressSentinel(t *testing.T) {
	r := NewQueryRegistry(4, nil)
	begin(r, nil, "SELECT 1", "classic")
	act := r.Active()
	if len(act) != 1 || act[0].Progress != -1 {
		t.Fatalf("untraced active = %+v, want progress -1", act)
	}
}

func TestTraceOf(t *testing.T) {
	r := NewQueryRegistry(2, nil)
	clock := storage.NewClock(storage.DefaultCostModel())
	tr := NewTrace(clock)

	q := begin(r, tr, "SELECT 1", "classic")
	if r.TraceOf(q.Record.ID) != tr {
		t.Fatal("active trace not found by ID")
	}
	finish(r, q, nil, QueryRecord{})
	if r.TraceOf(q.Record.ID) != tr {
		t.Fatal("completed trace not retained in ring")
	}
	if r.TraceOf(9999) != nil {
		t.Fatal("unknown ID must return nil")
	}
}

func TestBeginTruncatesSQL(t *testing.T) {
	r := NewQueryRegistry(2, nil)
	long := strings.Repeat("x", 2048)
	q := begin(r, nil, long, "classic")
	act := r.Active()
	if len(act) != 1 || len(act[0].SQL) >= 1024 {
		t.Fatalf("SQL not truncated: %d bytes", len(act[0].SQL))
	}
	finish(r, q, nil, QueryRecord{})
}

// TestRegistryConcurrent exercises Begin/Finish/phase transitions against
// concurrent Active/Recent polls; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	m := NewRegistry()
	r := NewQueryRegistry(16, m)
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 2; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Active()
					r.Recent()
					m.Expose()
				}
			}
		}()
	}
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 200; i++ {
				q := begin(r, nil, fmt.Sprintf("SELECT %d", i), "classic")
				q.SetPhase(PhaseRunning)
				finish(r, q, nil, QueryRecord{RowCount: i})
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	pollers.Wait()
	if v := m.Counter("rqp_queries_finished_total", L("outcome", "done")).Value(); v != 1600 {
		t.Fatalf("finished = %d, want 1600", v)
	}
	if len(r.Active()) != 0 {
		t.Fatal("queries left active")
	}
}
