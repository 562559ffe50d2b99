package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is one station of a query's lifecycle. Phases move strictly
// forward: Queued → Admitted → Running → (Spilling) → one of the terminal
// outcomes. Spilling is a sub-state of Running entered when the first
// spill event lands, so an operator console can tell "slow because big"
// from "slow because degrading gracefully".
type Phase int32

// Lifecycle phases.
const (
	PhaseQueued Phase = iota
	PhaseAdmitted
	PhaseRunning
	PhaseSpilling
	PhaseDone
	PhaseFailed
	PhaseRejected
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseAdmitted:
		return "admitted"
	case PhaseRunning:
		return "running"
	case PhaseSpilling:
		return "spilling"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	case PhaseRejected:
		return "rejected"
	}
	return "?"
}

// QueryState is one in-flight query's mutable lifecycle record. The engine
// writes phase transitions; poll handlers read concurrently, so the phase
// is an atomic and everything else is immutable after Begin/AttachTrace.
type QueryState struct {
	id     uint64
	sql    string
	policy string
	start  time.Time
	phase  int32 // atomic Phase
	trace  atomic.Pointer[Trace]
	fp     atomic.Pointer[string]
	reg    *QueryRegistry
}

// Phase returns the current lifecycle phase.
func (q *QueryState) Phase() Phase { return Phase(atomic.LoadInt32(&q.phase)) }

// SetPhase advances the lifecycle phase. Transitions only move forward;
// attempts to move backwards (e.g. a late "running" after "spilling") are
// ignored, which keeps concurrent writers safe without coordination. Like
// AttachTrace and Finish, it does nothing to a nil query (one the registry
// does not track).
func (q *QueryState) SetPhase(p Phase) {
	if q == nil {
		return
	}
	for {
		old := atomic.LoadInt32(&q.phase)
		if int32(p) <= old {
			return
		}
		if atomic.CompareAndSwapInt32(&q.phase, old, int32(p)) {
			return
		}
	}
}

// AttachTrace links the query's span-tree trace, enabling the live
// progress estimate and /trace/{id}, and hooks trace events so the first
// spill event flips the phase to Spilling.
func (q *QueryState) AttachTrace(t *Trace) {
	if q == nil || t == nil {
		return
	}
	q.trace.Store(t)
	t.SetOnEvent(func(kind string) {
		if strings.HasPrefix(kind, "spill.") {
			q.SetPhase(PhaseSpilling)
		}
	})
}

// SetFingerprint records the plan fingerprint once known (optimizer paths
// that hold the physical root call this; traced queries fall back to the
// span-tree fingerprint at finish time).
func (q *QueryState) SetFingerprint(fp string) {
	if fp != "" {
		q.fp.Store(&fp)
	}
}

// Trace returns the attached trace, or nil.
func (q *QueryState) Trace() *Trace { return q.trace.Load() }

// ActiveQuery is the poll-time snapshot of one in-flight query, the unit
// of the /queries "active" list.
type ActiveQuery struct {
	ID        uint64  `json:"id"`
	SQL       string  `json:"sql,omitempty"`
	Policy    string  `json:"policy"`
	Phase     string  `json:"phase"`
	StartedAt string  `json:"started_at"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Progress is the cheap estimate actual-so-far/estimated rows over the
	// span tree, in [0,1]; -1 when the query runs untraced and no estimate
	// exists. DoneRows/EstRows expose the raw numerator and denominator.
	Progress float64 `json:"progress"`
	DoneRows float64 `json:"done_rows,omitempty"`
	EstRows  float64 `json:"est_rows,omitempty"`
}

// QueryRegistry is the engine's live query table: every top-level query
// gets an ID and a QueryState at entry, moves through lifecycle phases,
// and lands in a fixed-size ring of recently completed QueryRecords on the
// way out — the flight recorder the /queries endpoint and the structured
// query log read from.
type QueryRegistry struct {
	nextID  uint64 // atomic
	mu      sync.Mutex
	active  map[uint64]*QueryState
	ring    []completed // fixed capacity, oldest overwritten
	ringPos int
	sink    QuerySink
	metrics *Registry
	now     func() time.Time
	// finished holds rqp_queries_finished_total{outcome} per terminal phase,
	// each resolved by its first query (under mu): a lookup by label
	// signature on every Finish would allocate more than a key lookup runs on.
	finished [PhaseRejected + 1]*Counter
}

type completed struct {
	rec   QueryRecord
	trace *Trace
}

// NewQueryRegistry returns a registry keeping the last ringSize completed
// queries (minimum 1). The metrics registry, when non-nil, receives the
// per-query latency histogram (rqp_query_latency_ms) and the live/peak
// active-query gauges every transition maintains.
func NewQueryRegistry(ringSize int, metrics *Registry) *QueryRegistry {
	if ringSize < 1 {
		ringSize = 1
	}
	return &QueryRegistry{
		active:  make(map[uint64]*QueryState),
		ring:    make([]completed, 0, ringSize),
		metrics: metrics,
		now:     time.Now,
	}
}

// SetSink installs the structured query log sink receiving one QueryRecord
// per completed query. A nil sink disables logging.
func (r *QueryRegistry) SetSink(s QuerySink) {
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

// Begin registers a query entering the engine and returns its lifecycle
// record in phase Queued. SQL text is truncated to keep snapshots cheap.
func (r *QueryRegistry) Begin(sql, policy string) *QueryState {
	const maxSQL = 512
	if len(sql) > maxSQL {
		sql = sql[:maxSQL] + "…"
	}
	q := &QueryState{
		id:     atomic.AddUint64(&r.nextID, 1),
		sql:    sql,
		policy: policy,
		start:  r.now(),
		reg:    r,
	}
	r.mu.Lock()
	r.active[q.id] = q
	n := len(r.active)
	r.mu.Unlock()
	if r.metrics != nil {
		g := r.metrics.Gauge("rqp_queries_active")
		g.Set(float64(n))
	}
	return q
}

// Finish retires a query: derives the terminal phase (Rejected sticks if
// already set, otherwise Failed on err, Done on success), completes rec —
// which carries the engine's numbers: rows, cost, peak memory, spill, filter,
// re-optimization and admission counts — with the query's identity, timing,
// outcome, error, fingerprint and q-error, pushes it onto the completed ring
// and hands it to the query-log sink. Idempotence is the caller's job — the
// engine finishes each query exactly once on its single exit path.
func (r *QueryRegistry) Finish(q *QueryState, err error, rec QueryRecord) *QueryRecord {
	if q == nil {
		return nil
	}
	switch {
	case q.Phase() == PhaseRejected:
		// terminal already
	case err != nil:
		q.SetPhase(PhaseFailed)
	default:
		q.SetPhase(PhaseDone)
	}
	end := r.now()
	rec.ID, rec.SQL, rec.Policy, rec.Outcome = q.id, q.sql, q.policy, q.Phase().String()
	rec.StartedAt = q.start.UTC().Format(time.RFC3339Nano)
	rec.DurationMS = float64(end.Sub(q.start).Microseconds()) / 1000
	if err != nil {
		rec.Error = err.Error()
	}
	tr := q.Trace()
	if fp := q.fp.Load(); fp != nil {
		rec.Fingerprint = *fp
	} else if tr != nil {
		rec.Fingerprint = tr.Fingerprint()
	}
	if tr != nil {
		rec.QErrorGeomean = tr.QErrorGeomean()
	}

	r.mu.Lock()
	delete(r.active, q.id)
	n := len(r.active)
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, completed{rec: rec, trace: tr})
	} else {
		r.ring[r.ringPos] = completed{rec: rec, trace: tr}
		r.ringPos = (r.ringPos + 1) % cap(r.ring)
	}
	sink := r.sink
	outcome := q.Phase()
	if r.metrics != nil && r.finished[outcome] == nil {
		r.finished[outcome] = r.metrics.Counter("rqp_queries_finished_total", L("outcome", rec.Outcome))
	}
	finished := r.finished[outcome]
	r.mu.Unlock()

	if r.metrics != nil {
		r.metrics.Gauge("rqp_queries_active").Set(float64(n))
		r.metrics.Histogram("rqp_query_latency_ms", LatencyBuckets).Observe(rec.DurationMS)
		finished.Inc()
	}
	if sink != nil {
		sink.WriteQuery(&rec)
	}
	return &rec
}

// Active snapshots the in-flight queries, ordered by ID (admission order).
func (r *QueryRegistry) Active() []ActiveQuery {
	now := r.now()
	r.mu.Lock()
	states := make([]*QueryState, 0, len(r.active))
	for _, q := range r.active {
		states = append(states, q)
	}
	r.mu.Unlock()
	out := make([]ActiveQuery, 0, len(states))
	for _, q := range states {
		aq := ActiveQuery{
			ID:        q.id,
			SQL:       q.sql,
			Policy:    q.policy,
			Phase:     q.Phase().String(),
			StartedAt: q.start.UTC().Format(time.RFC3339Nano),
			ElapsedMS: float64(now.Sub(q.start).Microseconds()) / 1000,
			Progress:  -1,
		}
		if t := q.Trace(); t != nil {
			done, total, frac := t.Progress()
			if total > 0 {
				aq.Progress, aq.DoneRows, aq.EstRows = frac, done, total
			}
		}
		out = append(out, aq)
	}
	sortActive(out)
	return out
}

func sortActive(qs []ActiveQuery) {
	for i := 1; i < len(qs); i++ {
		for j := i; j > 0 && qs[j].ID < qs[j-1].ID; j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
}

// Recent returns the completed-query ring, most recent first.
func (r *QueryRegistry) Recent() []QueryRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]QueryRecord, 0, len(r.ring))
	// The ring fills at the append edge first, then wraps at ringPos;
	// walking backwards from the write position yields newest-first.
	n := len(r.ring)
	start := r.ringPos
	if n < cap(r.ring) {
		start = n
	}
	for i := 0; i < n; i++ {
		idx := (start - 1 - i + n) % n
		out = append(out, r.ring[idx].rec)
	}
	return out
}

// TraceOf returns the trace for an active or recently completed query ID,
// or nil when the ID is unknown or the query ran untraced.
func (r *QueryRegistry) TraceOf(id uint64) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q, ok := r.active[id]; ok {
		return q.Trace()
	}
	for i := range r.ring {
		if r.ring[i].rec.ID == id {
			return r.ring[i].trace
		}
	}
	return nil
}
