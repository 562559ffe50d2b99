package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"rqp/internal/plan"
	"rqp/internal/stats"
	"rqp/internal/storage"
)

// Span is one operator's trace record. Cost is inclusive (it contains the
// children's cost, because an operator's Next drives its children); the
// renderer derives self-cost by subtracting the children.
type Span struct {
	mu       sync.Mutex
	label    string
	estRows  float64
	actual   float64 // -1 until finished
	cost     int64   // inclusive cost, in integer clock sub-units
	calls    int64   // Next invocations
	rows     int64   // rows produced so far (atomic; live, unlike actual)
	finished bool
	fused    string // label of the operator this one fused into; "" when it ran on its own
	children []*Span
}

// Label returns the operator label.
func (s *Span) Label() string { return s.label }

// EstRows returns the optimizer's cardinality estimate.
func (s *Span) EstRows() float64 { return s.estRows }

// ActualRows returns the observed output cardinality, or -1 if the operator
// never finished.
func (s *Span) ActualRows() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.finished {
		return -1
	}
	return s.actual
}

// Cost returns inclusive cost units consumed under this span.
func (s *Span) Cost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.cost) / storage.ClockScale
}

// Calls returns the number of Next invocations.
func (s *Span) Calls() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// Children returns the child spans (operator-tree order).
func (s *Span) Children() []*Span { return s.children }

// AddCost accrues cost units (called around Open/Next/Close). Accumulation
// happens in the clock's integer sub-unit domain, so attributing the same
// total cost in a different number of installments (row-at-a-time vs. batch)
// yields bit-identical span costs.
func (s *Span) AddCost(units float64) {
	u := int64(math.Round(units * storage.ClockScale))
	s.mu.Lock()
	s.cost += u
	s.mu.Unlock()
}

// AddCall counts one Next invocation.
func (s *Span) AddCall() {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
}

// AddRows counts rows produced so far. Unlike Finish's actual cardinality
// this is advanced while the operator runs, so live introspection can
// derive a progress estimate mid-query. Atomic: morsel workers and poll
// handlers touch it concurrently.
func (s *Span) AddRows(n int64) { atomic.AddInt64(&s.rows, n) }

// RowsSoFar returns the live produced-row count: the final actual
// cardinality once the span finished, the running counter before that.
func (s *Span) RowsSoFar() float64 {
	s.mu.Lock()
	if s.finished {
		a := s.actual
		s.mu.Unlock()
		return a
	}
	s.mu.Unlock()
	return float64(atomic.LoadInt64(&s.rows))
}

// Finish records the observed output cardinality (first call wins).
func (s *Span) Finish(actual float64) {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.actual = actual
	}
	s.mu.Unlock()
}

// FinishFused is Finish for an operator that ran inside another one's loop
// (a scan or join fused into a morsel pipeline): it has no cost of its own —
// its units accrued under the span of the operator it fused into, named by
// into — so dumps say so instead of printing a zero cost.
func (s *Span) FinishFused(actual float64, into string) {
	s.mu.Lock()
	s.fused = into
	s.mu.Unlock()
	s.Finish(actual)
}

// FusedInto returns the label of the operator this one fused into, or "".
func (s *Span) FusedInto() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fused
}

// QError returns the span's cardinality q-error, or 0 if unfinished.
func (s *Span) QError() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.finished {
		return 0
	}
	return stats.QError(s.estRows, s.actual)
}

// SelfCost returns the span's cost minus its children's.
func (s *Span) SelfCost() float64 {
	c := s.Cost()
	for _, ch := range s.children {
		c -= ch.Cost()
	}
	if c < 0 {
		c = 0
	}
	return c
}

// spanJSON is the exported dump shape.
type spanJSON struct {
	Label      string     `json:"label"`
	EstRows    float64    `json:"est_rows"`
	ActualRows float64    `json:"actual_rows"`
	QError     float64    `json:"qerror,omitempty"`
	Cost       *float64   `json:"cost_units,omitempty"`      // absent on a fused span
	SelfCost   *float64   `json:"self_cost_units,omitempty"` // absent on a fused span
	FusedInto  string     `json:"fused_into,omitempty"`
	Calls      int64      `json:"next_calls"`
	Children   []spanJSON `json:"children,omitempty"`
}

func (s *Span) toJSON() spanJSON {
	j := spanJSON{
		Label:      s.Label(),
		EstRows:    s.EstRows(),
		ActualRows: s.ActualRows(),
		QError:     s.QError(),
		FusedInto:  s.FusedInto(),
		Calls:      s.Calls(),
	}
	if j.FusedInto == "" {
		cost, self := s.Cost(), s.SelfCost()
		j.Cost, j.SelfCost = &cost, &self
	}
	for _, c := range s.children {
		j.Children = append(j.Children, c.toJSON())
	}
	return j
}

// Event is one engine-level occurrence (re-optimization, plan-cache hit,
// memory grant, admission decision, ...), timestamped in clock cost units.
type Event struct {
	At     float64 `json:"at_units"`
	Kind   string  `json:"kind"`
	Detail string  `json:"detail,omitempty"`
}

// Trace collects one query's spans and events.
type Trace struct {
	mu      sync.Mutex
	clock   *storage.Clock
	roots   []*Span
	spans   map[plan.Node]*Span
	events  []Event
	onEvent func(kind string)
}

// SetOnEvent installs an observer invoked (outside the trace lock) with
// every recorded event kind. The lifecycle registry uses it to flip a
// query's phase to "spilling" the moment the first spill event lands.
func (t *Trace) SetOnEvent(fn func(kind string)) {
	t.mu.Lock()
	t.onEvent = fn
	t.mu.Unlock()
}

// NewTrace returns a trace timestamping events on the given clock (nil is
// allowed; events are then stamped at 0).
func NewTrace(clock *storage.Clock) *Trace {
	return &Trace{clock: clock, spans: map[plan.Node]*Span{}}
}

// AddFragment builds a span tree mirroring the plan fragment and registers
// every node. Progressive execution runs several fragments per query; each
// exec.Build call adds one. Re-adding a known root is a no-op.
func (t *Trace) AddFragment(root plan.Node) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.spans[root]; ok {
		return s
	}
	s := t.buildSpan(root)
	t.roots = append(t.roots, s)
	return s
}

func (t *Trace) buildSpan(n plan.Node) *Span {
	s := &Span{label: n.Label(), estRows: n.Props().EstRows, actual: -1}
	for _, c := range n.Children() {
		s.children = append(s.children, t.buildSpan(c))
	}
	t.spans[n] = s
	return s
}

// SpanOf returns the span registered for a plan node, or nil.
func (t *Trace) SpanOf(n plan.Node) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[n]
}

// Roots returns the fragment roots in execution order.
func (t *Trace) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Event records an engine-level event at the current clock time.
func (t *Trace) Event(kind, detail string) {
	at := 0.0
	if t.clock != nil {
		at = t.clock.Units()
	}
	t.mu.Lock()
	t.events = append(t.events, Event{At: at, Kind: kind, Detail: detail})
	hook := t.onEvent
	t.mu.Unlock()
	if hook != nil {
		hook(kind)
	}
}

// Events returns a snapshot of the recorded events.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// Summarize records the summary events of a finished statement's record:
// columnar blocks skipped and scanned, shuffle totals (and wire totals when
// a network transport ran) and runtime-filter totals, each only when the
// statement had such activity.
func (t *Trace) Summarize(rec *QueryRecord) {
	if rec.ColBlocksSkipped+rec.ColBlocksScanned+rec.ColHeapPages > 0 {
		t.Event("columnar.summary", fmt.Sprintf("blocks_skipped=%d blocks_scanned=%d heap_pages=%d",
			rec.ColBlocksSkipped, rec.ColBlocksScanned, rec.ColHeapPages))
	}
	if s := rec.Shuffle; s != nil {
		t.Event("shuffle.summary", fmt.Sprintf(
			"shards=%d moved=%d broadcast=%d hot_keys=%d hot_dups=%d degrades=%d",
			s.Shards, s.RowsMoved, s.RowsBroadcast, s.HotKeys, s.HotProbeDups, s.Degrades))
		if s.Transport != "" && s.Transport != "local" {
			t.Event("shuffle.net", fmt.Sprintf(
				"transport=%s frames=%d bytes=%d rows_routed=%d rows_wire=%d stalls=%d reconciled=%v",
				s.Transport, s.NetFrames, s.NetBytes, s.NetRowsRouted, s.NetRowsWire, s.NetStalls, s.Reconciled()))
		}
	}
	if rec.RFBuilt > 0 {
		t.Event("rf.summary", fmt.Sprintf("built=%d tested=%d dropped=%d disabled=%d",
			rec.RFBuilt, rec.RFTested, rec.RFDropped, rec.RFDisabled))
	}
}

// Render formats the trace as an EXPLAIN ANALYZE tree: one line per
// operator with estimated rows, actual rows, q-error and cost, followed by
// the engine-event log. Unexecuted operators show actual=-.
func (t *Trace) Render() string {
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()

	var sb strings.Builder
	for i, r := range roots {
		if len(roots) > 1 {
			fmt.Fprintf(&sb, "-- fragment %d --\n", i+1)
		}
		renderSpan(&sb, r, 0)
	}
	if len(events) > 0 {
		sb.WriteString("-- events --\n")
		for _, e := range events {
			fmt.Fprintf(&sb, "[%8.2f] %s", e.At, e.Kind)
			if e.Detail != "" {
				sb.WriteByte(' ')
				sb.WriteString(e.Detail)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func renderSpan(sb *strings.Builder, s *Span, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	actual := s.ActualRows()
	if into := s.FusedInto(); into != "" {
		fmt.Fprintf(sb, "%s (est=%.0f actual=%.0f q=%.2f fused into %s)\n",
			s.Label(), s.EstRows(), actual, s.QError(), into)
	} else if actual >= 0 {
		fmt.Fprintf(sb, "%s (est=%.0f actual=%.0f q=%.2f cost=%.2f self=%.2f)\n",
			s.Label(), s.EstRows(), actual, s.QError(), s.Cost(), s.SelfCost())
	} else {
		fmt.Fprintf(sb, "%s (est=%.0f actual=- cost=%.2f self=%.2f)\n",
			s.Label(), s.EstRows(), s.Cost(), s.SelfCost())
	}
	for _, c := range s.Children() {
		renderSpan(sb, c, depth+1)
	}
}

// traceJSON is the dump shape of a whole trace.
type traceJSON struct {
	Fragments []spanJSON `json:"fragments"`
	Events    []Event    `json:"events,omitempty"`
}

// Progress returns a cheap live progress estimate for the traced query:
// rows produced so far versus the optimizer's estimated rows, summed over
// every span (done, total, fraction in [0,1]). The per-span contribution is
// clamped at the estimate, so cardinality underestimates saturate a span at
// 100% instead of pushing the fraction past one; a query with no estimated
// work reports (0, 0, 0). The done figure advances monotonically while the
// query runs — span row counters only grow.
func (t *Trace) Progress() (done, total, frac float64) {
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.spans))
	for _, s := range t.spans {
		spans = append(spans, s)
	}
	t.mu.Unlock()
	for _, s := range spans {
		est := s.EstRows()
		if est <= 0 {
			continue
		}
		total += est
		done += math.Min(s.RowsSoFar(), est)
	}
	if total > 0 {
		frac = done / total
	}
	return done, total, frac
}

// Fingerprint hashes the span trees' shape (operator labels in preorder
// with structural parentheses) into a stable 16-hex-digit plan fingerprint.
// Two queries whose plans have the same operators in the same tree shape
// share a fingerprint regardless of cardinalities or costs — the grouping
// key the structured query log uses to aggregate by plan. Works for every
// policy, including progressive execution where fragments accumulate.
func (t *Trace) Fingerprint() string {
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	h := fnv.New64a()
	for _, r := range roots {
		fingerprintSpan(h, r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func fingerprintSpan(h interface{ Write([]byte) (int, error) }, s *Span) {
	h.Write([]byte(s.Label()))
	h.Write([]byte{'('})
	for _, c := range s.Children() {
		fingerprintSpan(h, c)
	}
	h.Write([]byte{')'})
}

// JSON dumps the trace (span trees plus events) as indented JSON.
func (t *Trace) JSON() ([]byte, error) {
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	events := append([]Event(nil), t.events...)
	t.mu.Unlock()
	d := traceJSON{Events: events}
	for _, r := range roots {
		d.Fragments = append(d.Fragments, r.toJSON())
	}
	return json.MarshalIndent(d, "", "  ")
}
