// Package exec implements the Volcano-style iterator execution engine: one
// operator per physical plan node, with per-operator actual-cardinality
// accounting (the raw input of every robustness metric) and the adaptive
// generalized join the Dagstuhl report's query-execution sessions discuss.
//
// Scans, streaming joins (hash, nested-loop and index nested-loop) and hash
// aggregation run one way at every degree of parallelism: as a morsel
// pipeline (pipeline.go) — a source cut into page, block or row-range
// morsels, every streaming join down the probe side as one more probe in the
// same morsel, and a sink (the aggregation, a gather's store or
// exchange, a hash table being built). Context.DOP is only how many workers
// drain it: one steps through the morsels in order on the context clock (and
// a gather refills its store a morsel at a time, so a consumer that stops
// early never pays for the rest); more pull morsels from a shared cursor,
// each on a shard of the clock. The other operators are classic
// Open/Next/Close iterators (Operator); a pipeline is pulled through one.
//
// Every charge goes to the deterministic cost Clock (internal/storage), and
// a morsel issues the same charges whichever worker runs it, so rows and
// integer cost are property-tested identical at every worker count — but for
// hash aggregation, which more workers run as per-morsel partials: float sums
// reassociated, and no workspace grant (so no spilling) of their own.
//
// Row ownership: a row returned by Next is valid until the next call on
// that operator — producers reuse their output buffers and nothing
// allocates per row. The one root drain loop (runOp, behind Drain)
// lends each row to a RowSink before pulling again; a consumer that keeps
// a row across calls copies it: the collecting sink of Run and drain, sort
// and spill runs into a RowArena (chunked value slabs that grow
// geometrically), hash tables and exchanges packed. Every scan and every join
// lends a row holding only what something above it reads: the optimizer puts
// the live columns on the node (Cols; nil = all — the stored row, or
// left‖right), filters, keys, residuals and runtime filters test the input in
// its own coordinates, and the survivor is projected (appendCols, joinRow)
// into a page buffer or a scratch row, valid until the next call or until emit
// returns. A retained row is copied once: an exchange packs and lends again
// like any operator, and a retained row set (RowSet, behind collect) cuts its
// []Row index once, after the last row. Every hash join drains its build into
// one joinTable — packedRows, 9 B a value, boxed only on a match — every
// streaming join probes through one joinProbe, and every hash aggregation
// accumulates into one aggTable over the same hashIndex and lends its output
// row (kernel.go); SetRowPoison is the test
// harness that overwrites stale rows so a missing copy fails loudly.
//
// Workspace memory is arbitrated by the MemBroker: stateful operators (hash
// join, hash aggregation, external sort) request grants counted in rows and
// degrade gracefully when a grant comes back short — they partition their
// build/state by key hash, keep a resident prefix of partitions, spill the
// rest to storage.TempRun pages, and recursively process the spilled
// partitions, falling back to external sort-merge when repartitioning stops
// helping (see spill.go). A broker budget may also shrink mid-query through
// SetSchedule (the memory-pressure fault injector) or an external caller
// such as the workload manager reclaiming memory; operators re-read their
// grants at phase boundaries, which is exactly the "grow & shrink memory"
// robustness technique from the report's resource-management sessions.
// SpillStats on the Context aggregates partitions spilled, temp-run
// rows/pages written, recursion depth and merge fallbacks; with a tracer
// attached, the same activity surfaces as spill.* events in EXPLAIN
// ANALYZE.
package exec
