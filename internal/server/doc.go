// Package server is the network service layer: a TCP wire protocol over
// which clients run SQL against a shared engine, with per-session state and
// the workload manager as a real admission gatekeeper.
//
// # Protocol
//
// The wire format is length-prefixed binary frames — one type byte, a
// big-endian uint32 payload length (capped, default 1 MiB), then the
// payload. Clients send Startup/Query/Cancel/Terminate; servers answer
// Ready/RowDesc/Row/Complete/Error/Notice. The
// normative specification, precise enough to implement a third-party
// client from, is docs/WIRE_PROTOCOL.md; the Client type in this package is
// the reference implementation.
//
// # Sessions
//
// Each connection is one session served by one goroutine: a handshake
// (version-checked Startup → Ready), then sequential command cycles. A
// second goroutine owns the read side so two things work while a statement
// is executing: Cancel frames flip the session's cooperative cancel flag —
// polled by the engine's root drain loop — and a dead connection flips the
// same flag, so a client crash aborts its query instead of leaving it
// running for nobody. A session keeps no statements of its own: the bound
// statements and compiled plans live in the engine's shared PlanCache,
// keyed by text, so sessions running the same statement — literal or with
// `?` parameters — share one parse, one bind and, for binds inside a
// plan's selectivity region, one cached plan.
//
// # Results
//
// A result is streamed, never staged: the session is the engine's RowSink
// (core.Engine.ExecStream) and encodes each row onto the connection while
// the plan root still owns it, through one frame writer, one row encoder
// and one row decoder shared with WriteFrame/WriteMsg, the Client and the
// shuffle sub-protocol. A cycle is RowDesc Row* (Complete | Error), and
// Complete carries the statement's cost units and POP re-plans;
// the statement's admission slot covers delivery, so a client that stops
// reading holds it until it reads on or disconnects. EXPLAIN and EXPLAIN
// ANALYZE answer with their plan text as a one-column result, one Row per
// line, tagged EXPLAIN.
//
// # Admission
//
// The engine's wlm.Admitter MPL gate and workspace-memory pool gatekeep for
// real here. A session calls the engine once per statement; a SELECT or
// EXPLAIN ANALYZE that finds the gate full waits inside the engine's
// admission step, the one place a statement queues: FIFO, each freed slot
// handed straight to the oldest waiter, bounded by the server's queue
// timeout and ended early by Cancel or a disconnect. Other statements take
// no slot and never wait. The session is the statement's
// core.AdmissionQueue, so the client sees the backpressure as it happens —
// a WLM_QUEUED notice on entering the queue, WLM_ADMITTED when its turn
// comes, ERR_ADMIT on aging out — and the statement is in the engine's
// lifecycle registry from its first moment in the queue (phase queued) to
// its one completed record, so the /queries debug endpoint shows the same
// story.
package server
