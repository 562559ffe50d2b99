package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// QueryRecord is one top-level statement's record, filled once as it ends:
// exec fills what its counters saw, the engine adds rows, re-plans,
// admission, fingerprint and q-error, and the registry's Begin and Finish
// add identity, timing and outcome. Everything that reports on a finished
// statement reads it: the rqp_* metrics, the trace's summary events, the
// JSONL query log, the /queries ring, EXPLAIN ANALYZE's footer and the
// engine's Result.
type QueryRecord struct {
	ID          uint64    `json:"id"`
	SQL         string    `json:"sql,omitempty"`
	Policy      string    `json:"policy"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Outcome     string    `json:"outcome"` // done | failed | rejected
	StartedAt   time.Time `json:"started_at"`
	DurationMS  float64   `json:"duration_ms"`
	RowCount    int       `json:"rows"`
	Cost        float64   `json:"cost_units"` // simulated cost units consumed
	// QErrorGeomean is the geometric mean q-error of the executed plan's
	// nodes (POP: of its checkpoints); 0 when none ran.
	QErrorGeomean float64 `json:"qerror_geomean,omitempty"`
	PeakMemRows   int     `json:"peak_mem_rows,omitempty"`
	Overcommits   int     `json:"mem_overcommits,omitempty"` // grants past the budget
	Reopts        int     `json:"reopts,omitempty"`          // POP re-optimizations
	// Spill is what the statement's operators wrote to temp runs:
	// partitions, rows, pages, the deepest recursion level that spilled,
	// and partitions that fell back to sort-merge.
	SpillParts     int `json:"spill_partitions,omitempty"`
	SpillRows      int `json:"spill_rows,omitempty"`
	SpillPages     int `json:"spill_pages,omitempty"`
	SpillDepth     int `json:"spill_depth,omitempty"`
	SpillFallbacks int `json:"spill_fallbacks,omitempty"`
	// ColBlocksSkipped and ColBlocksScanned count columnar blocks pruned
	// and decoded; ColHeapPages the pages columnar scans read from the heap.
	ColBlocksSkipped int64 `json:"col_blocks_skipped,omitempty"`
	ColBlocksScanned int64 `json:"col_blocks_scanned,omitempty"`
	ColHeapPages     int64 `json:"col_heap_pages,omitempty"`
	// RF is the runtime join filters' activity: filters built, rows tested
	// and dropped, filters that disabled themselves.
	RFBuilt    int64 `json:"rf_built,omitempty"`
	RFTested   int64 `json:"rf_tested,omitempty"`
	RFDropped  int64 `json:"rf_dropped,omitempty"`
	RFDisabled int64 `json:"rf_disabled,omitempty"`
	// Admissions is 1 when the statement held a workload-management
	// admission slot; a statement the gate turned away ends "rejected".
	Admissions int `json:"admissions,omitempty"`
	// Shuffle is set when at least one join went through the sharded layer.
	Shuffle *ShuffleRecord `json:"shuffle,omitempty"`
	Error   string         `json:"error,omitempty"`
}

// ShuffleRecord is a sharded statement's shuffle-exchange activity.
// ShardUnits is the main-clock cost each shard performed (these sum into
// the statement's cost); ShardExtra is the overhead cost of rows shipped to
// that shard, which lives outside the main-clock parity domain.
type ShuffleRecord struct {
	Shards           int       `json:"shards"`
	RowsMoved        int64     `json:"rows_moved"`
	RowsBroadcast    int64     `json:"rows_broadcast"`
	HotKeys          int64     `json:"hot_keys"`
	HotProbeDups     int64     `json:"hot_probe_dups"`
	Degrades         int64     `json:"degrades"`
	ColocatedJoins   int64     `json:"colocated_joins"`
	RepartitionJoins int64     `json:"repartition_joins"`
	BroadcastJoins   int64     `json:"broadcast_joins"`
	ShardUnits       []float64 `json:"shard_units"`
	ShardExtra       []float64 `json:"shard_extra"`

	// Wire-accounting domain (zero unless a network transport ran).
	Transport     string  `json:"transport,omitempty"`
	NetFrames     int64   `json:"net_frames,omitempty"`
	NetBytes      int64   `json:"net_bytes,omitempty"`
	NetRowsRouted int64   `json:"net_rows_routed,omitempty"`
	NetRowsWire   int64   `json:"net_rows_wire,omitempty"`
	NetStalls     int64   `json:"net_stalls,omitempty"`
	NetFallbacks  int64   `json:"net_fallbacks,omitempty"`
	PeerFrames    []int64 `json:"peer_frames,omitempty"`
	PeerBytes     []int64 `json:"peer_bytes,omitempty"`
	PeerStalls    []int64 `json:"peer_stalls,omitempty"`
}

// Reconciled reports whether the wire accounting balances: every row handed
// to the transport was carried by a frame that actually hit a socket. True
// (vacuously) for local-only execution.
func (s *ShuffleRecord) Reconciled() bool {
	return s.NetRowsRouted == s.NetRowsWire
}

// QuerySink receives one record per completed query. Implementations must
// be safe for concurrent use; the registry calls WriteQuery outside its
// lock, from whichever goroutine finished the query.
type QuerySink interface {
	WriteQuery(rec QueryRecord)
}

// JSONLSink writes one JSON object per line to an io.Writer — the
// pluggable default sink (file, pipe, test buffer). Marshal errors cannot
// occur for QueryRecord (scalars and a time), so WriteQuery is
// fire-and-forget; write errors are retained and readable via Err, never
// fatal to queries.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps a writer.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// OpenJSONLFile opens (appending, creating) a query-log file sink. The
// returned closer flushes nothing — lines are written whole — it just
// closes the file.
func OpenJSONLFile(path string) (*JSONLSink, io.Closer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return NewJSONLSink(f), f, nil
}

// WriteQuery implements QuerySink.
func (s *JSONLSink) WriteQuery(rec QueryRecord) {
	raw, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	raw = append(raw, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(raw); err != nil {
		s.err = err
	}
}

// Err reports the first write error, if any (the sink stops writing after
// one).
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
