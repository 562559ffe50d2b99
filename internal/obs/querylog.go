package obs

import (
	"encoding/json"
	"io"
	"os"
	"sync"
)

// QueryRecord is one completed query's structured log record — the unit of
// the JSONL query log and of the /queries "recent" ring. It compresses a
// whole lifecycle into the numbers a fleet operator greps for: what plan
// shape ran (Fingerprint), how wrong the optimizer was (QErrorGeomean),
// what it cost (CostUnits, DurationMS), how hard the adaptive machinery
// had to work (Reopts, SpillParts, RFDropped, PeakMemRows) and how it
// ended (Outcome, Error).
type QueryRecord struct {
	ID            uint64  `json:"id"`
	SQL           string  `json:"sql,omitempty"`
	Policy        string  `json:"policy"`
	Fingerprint   string  `json:"fingerprint,omitempty"`
	Outcome       string  `json:"outcome"` // done | failed | rejected
	StartedAt     string  `json:"started_at"`
	DurationMS    float64 `json:"duration_ms"`
	Rows          int     `json:"rows"`
	CostUnits     float64 `json:"cost_units"`
	QErrorGeomean float64 `json:"qerror_geomean,omitempty"`
	PeakMemRows   int     `json:"peak_mem_rows,omitempty"`
	Reopts        int     `json:"reopts,omitempty"`
	SpillParts    int     `json:"spill_partitions,omitempty"`
	SpillRows     int     `json:"spill_rows,omitempty"`
	RFBuilt       int64   `json:"rf_built,omitempty"`
	RFDropped     int64   `json:"rf_dropped,omitempty"`
	Admissions    int     `json:"admissions,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// QuerySink receives one record per completed query. Implementations must
// be safe for concurrent use; the registry calls WriteQuery outside its
// lock, from whichever goroutine finished the query.
type QuerySink interface {
	WriteQuery(rec *QueryRecord)
}

// JSONLSink writes one JSON object per line to an io.Writer — the
// pluggable default sink (file, pipe, test buffer). Marshal errors cannot
// occur for QueryRecord (plain scalars), so WriteQuery is fire-and-forget;
// write errors are retained and readable via Err, never fatal to queries.
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
func (s *JSONLSink) WriteQuery(rec *QueryRecord) {
	raw, err := json.Marshal(rec)
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
