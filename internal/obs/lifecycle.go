package obs

import (
	"strconv"
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

// QueryState is one statement's lifecycle: its record, which Begin starts
// and Finish completes, its trace, start and phase. The caller owns it.
// Poll handlers read it concurrently: the phase is an atomic, and the
// record's identity and the trace do not change once Begin registers it.
type QueryState struct {
	Record QueryRecord
	trace  *Trace
	start  time.Time
	phase  int32 // atomic Phase
}

// Phase returns the current lifecycle phase.
func (q *QueryState) Phase() Phase { return Phase(atomic.LoadInt32(&q.phase)) }

// SetPhase advances the lifecycle phase. Transitions only move forward;
// attempts to move backwards (e.g. a late "running" after "spilling") are
// ignored, which keeps concurrent writers safe without coordination. Like
// Finish, it does nothing to a state Begin did not register.
func (q *QueryState) SetPhase(p Phase) {
	if q.Record.ID == 0 {
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
// gets an ID at entry, moves through lifecycle phases, and on the way out
// lands in a fixed-size ring of recently completed QueryRecords — the
// flight recorder the /queries endpoint reads — in the metrics and in the
// structured query log.
type QueryRegistry struct {
	nextID  uint64 // atomic
	mu      sync.Mutex
	active  map[uint64]*QueryState
	ring    []completed // fixed capacity, oldest overwritten
	ringPos int
	sink    QuerySink
	metrics *Registry
	now     func() time.Time
	// finished holds rqp_queries_finished_total{outcome} per terminal phase
	// and queries rqp_queries_total{policy} per policy, each resolved by its
	// first query (under mu): a lookup by label signature on every Finish
	// would allocate more than a key lookup runs on.
	finished [PhaseRejected + 1]*Counter
	queries  map[string]*Counter
}

type completed struct {
	rec   QueryRecord
	trace *Trace
}

// NewQueryRegistry returns a registry keeping the last ringSize completed
// queries (minimum 1). The metrics registry, when non-nil, receives the
// active-query gauge every transition maintains, and what each finished
// statement's record counts: outcome, latency, admission and the execution
// counters (see count).
func NewQueryRegistry(ringSize int, metrics *Registry) *QueryRegistry {
	if ringSize < 1 {
		ringSize = 1
	}
	return &QueryRegistry{
		active:  make(map[uint64]*QueryState),
		queries: make(map[string]*Counter),
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

// Begin registers a statement entering the engine, in phase Queued: its
// record gets an ID, the SQL text (truncated to keep snapshots cheap), the
// policy and the start time. A non-nil trace t enables the live progress
// estimate and /trace/{id}, and its first spill event flips the phase to
// Spilling.
func (r *QueryRegistry) Begin(q *QueryState, t *Trace, sql, policy string) {
	const maxSQL = 512
	if len(sql) > maxSQL {
		sql = sql[:maxSQL] + "…"
	}
	q.start = r.now()
	rec := &q.Record
	rec.ID, rec.SQL, rec.Policy, rec.StartedAt = atomic.AddUint64(&r.nextID, 1), sql, policy, q.start.UTC()
	q.trace, q.phase = t, int32(PhaseQueued)
	if t != nil {
		t.SetOnEvent(func(kind string) {
			if strings.HasPrefix(kind, "spill.") {
				q.SetPhase(PhaseSpilling)
			}
		})
	}
	r.mu.Lock()
	r.active[rec.ID] = q
	n := len(r.active)
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.Gauge("rqp_queries_active").Set(float64(n))
	}
}

// Finish retires a statement: derives the terminal phase (Rejected sticks if
// already set, otherwise Failed on err, Done on success), completes its
// record with outcome, duration, error and — when the engine named no plan —
// the trace's fingerprint, pushes a copy onto the completed ring, counts the
// record in the metrics and hands it to the query-log sink. Idempotence is
// the caller's job: the engine finishes each statement exactly once, on its
// single exit path.
func (r *QueryRegistry) Finish(q *QueryState, err error) {
	rec := &q.Record
	if rec.ID == 0 {
		return
	}
	switch {
	case q.Phase() == PhaseRejected:
		// terminal already
	case err != nil:
		q.SetPhase(PhaseFailed)
	default:
		q.SetPhase(PhaseDone)
	}
	outcome := q.Phase()
	rec.Outcome = outcome.String()
	rec.DurationMS = float64(r.now().Sub(q.start).Microseconds()) / 1000
	if err != nil {
		rec.Error = err.Error()
	}
	if rec.Fingerprint == "" && q.trace != nil {
		rec.Fingerprint = q.trace.Fingerprint()
	}

	r.mu.Lock()
	delete(r.active, rec.ID)
	n := len(r.active)
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, completed{rec: *rec, trace: q.trace})
	} else {
		r.ring[r.ringPos] = completed{rec: *rec, trace: q.trace}
		r.ringPos = (r.ringPos + 1) % cap(r.ring)
	}
	sink := r.sink
	var finished, queries *Counter
	if r.metrics != nil {
		if r.finished[outcome] == nil {
			r.finished[outcome] = r.metrics.Counter("rqp_queries_finished_total", L("outcome", rec.Outcome))
		}
		finished = r.finished[outcome]
		if outcome == PhaseDone {
			if queries = r.queries[rec.Policy]; queries == nil {
				queries = r.metrics.Counter("rqp_queries_total", L("policy", rec.Policy))
				r.queries[rec.Policy] = queries
			}
		}
	}
	r.mu.Unlock()

	if r.metrics != nil {
		r.metrics.Gauge("rqp_queries_active").Set(float64(n))
		r.metrics.Histogram("rqp_query_latency_ms", LatencyBuckets).Observe(rec.DurationMS)
		finished.Inc()
		r.count(rec, queries)
	}
	if sink != nil {
		sink.WriteQuery(*rec)
	}
}

// count adds a finished statement's record to the rqp_* metrics: its
// admission, and — queries non-nil: it ran to the end — what it executed. A
// group of series (spill, columnar, shuffle, runtime filters) appears with
// the first statement that had such activity.
func (r *QueryRegistry) count(rec *QueryRecord, queries *Counter) {
	m := r.metrics
	if rec.Admissions > 0 {
		m.Counter("rqp_wlm_admitted_total").Add(int64(rec.Admissions))
	}
	if rec.Outcome == PhaseRejected.String() {
		m.Counter("rqp_wlm_rejected_total").Inc()
	}
	if queries == nil {
		return
	}
	queries.Inc()
	m.Histogram("rqp_query_cost_units", CostBuckets).Observe(rec.Cost)
	if rec.Reopts > 0 {
		m.Counter("rqp_reopts_total").Add(int64(rec.Reopts))
	}
	if rec.Overcommits > 0 {
		m.Counter("rqp_mem_overcommit_total").Add(int64(rec.Overcommits))
	}
	m.Gauge("rqp_mem_peak_rows").Set(float64(rec.PeakMemRows))
	if rec.SpillParts > 0 {
		m.Counter("rqp_spill_partitions_total").Add(int64(rec.SpillParts))
		m.Counter("rqp_spill_rows_total").Add(int64(rec.SpillRows))
		m.Counter("rqp_spill_pages_written_total").Add(int64(rec.SpillPages))
		m.Gauge("rqp_spill_recursion_depth").Set(float64(rec.SpillDepth))
		if rec.SpillFallbacks > 0 {
			m.Counter("rqp_spill_merge_fallbacks_total").Add(int64(rec.SpillFallbacks))
		}
	}
	if rec.ColBlocksSkipped+rec.ColBlocksScanned+rec.ColHeapPages > 0 {
		m.Counter("rqp_columnar_blocks_skipped").Add(rec.ColBlocksSkipped)
		m.Counter("rqp_columnar_blocks_scanned").Add(rec.ColBlocksScanned)
		m.Counter("rqp_columnar_heap_pages").Add(rec.ColHeapPages)
	}
	if s := rec.Shuffle; s != nil {
		m.Counter("rqp_shuffle_rows_moved_total").Add(s.RowsMoved)
		m.Counter("rqp_shuffle_rows_broadcast_total").Add(s.RowsBroadcast)
		m.Counter("rqp_shuffle_hot_keys_total").Add(s.HotKeys)
		m.Counter("rqp_shuffle_hot_probe_dups_total").Add(s.HotProbeDups)
		m.Counter("rqp_shuffle_degrades_total").Add(s.Degrades)
		m.Counter("rqp_shuffle_joins_total", L("mode", "colocated")).Add(s.ColocatedJoins)
		m.Counter("rqp_shuffle_joins_total", L("mode", "repartition")).Add(s.RepartitionJoins)
		m.Counter("rqp_shuffle_joins_total", L("mode", "broadcast")).Add(s.BroadcastJoins)
		if s.NetFrames > 0 || s.NetFallbacks > 0 {
			m.Counter("rqp_shuffle_net_frames_total").Add(s.NetFrames)
			m.Counter("rqp_shuffle_net_bytes_total").Add(s.NetBytes)
			m.Counter("rqp_shuffle_net_rows_wire_total").Add(s.NetRowsWire)
			m.Counter("rqp_shuffle_net_stalls_total").Add(s.NetStalls)
			m.Counter("rqp_shuffle_net_fallbacks_total").Add(s.NetFallbacks)
			for peer := range s.PeerFrames {
				lbl := L("peer", strconv.Itoa(peer))
				m.Counter("rqp_shuffle_peer_frames_total", lbl).Add(s.PeerFrames[peer])
				m.Counter("rqp_shuffle_peer_bytes_total", lbl).Add(s.PeerBytes[peer])
				m.Counter("rqp_shuffle_peer_stalls_total", lbl).Add(s.PeerStalls[peer])
			}
		}
	}
	if rec.RFBuilt > 0 {
		m.Counter("rqp_filter_built_total").Add(rec.RFBuilt)
		m.Counter("rqp_filter_tested_total").Add(rec.RFTested)
		m.Counter("rqp_filter_dropped_total").Add(rec.RFDropped)
		if rec.RFDisabled > 0 {
			m.Counter("rqp_filter_disabled_total").Add(rec.RFDisabled)
		}
	}
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
			ID:        q.Record.ID,
			SQL:       q.Record.SQL,
			Policy:    q.Record.Policy,
			Phase:     q.Phase().String(),
			StartedAt: q.Record.StartedAt.Format(time.RFC3339Nano),
			ElapsedMS: float64(now.Sub(q.start).Microseconds()) / 1000,
			Progress:  -1,
		}
		if t := q.trace; t != nil {
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
		return q.trace
	}
	for i := range r.ring {
		if r.ring[i].rec.ID == id {
			return r.ring[i].trace
		}
	}
	return nil
}
