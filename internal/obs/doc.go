// Package obs is the engine's observability layer: per-query span traces
// that mirror the operator tree (estimated vs. actual cardinality, q-error,
// simulated cost consumed), engine-level events, and a lock-cheap metrics
// registry with a Prometheus-style text exposition.
//
// Traces carry two complementary signals. Spans attribute simulated cost
// and actual cardinality to individual operators — the estimated-vs-actual
// signal every robustness experiment reads. Events record engine-level
// happenings in query order: POP re-optimizations, Rio plan choices,
// plan-cache hits, admission decisions (wlm.*), memory grants and releases
// (mem.*), and graceful-degradation activity (spill.* — partitions spilled,
// recursion depth, sort-merge fallbacks), all rendered by EXPLAIN ANALYZE.
//
// Each top-level statement has one QueryRecord, filled once as it ends;
// QueryRegistry.Finish feeds it to /queries, the rqp_* metrics and the
// QuerySink, and Trace.Summarize to the summary events.
//
// The Dagstuhl report's position is that robustness must be measured, not
// assumed — this package is where the measurements live.
package obs
