// Package server is the network service layer: a TCP wire protocol over
// which clients run SQL against a shared engine, with per-session state and
// the workload manager as a real admission gatekeeper.
//
// # Protocol
//
// The wire format is length-prefixed binary frames — one type byte, a
// big-endian uint32 payload length (capped, default 1 MiB), then the
// payload. Clients send Startup/Query/Prepare/Bind/Execute/Cancel/Close/
// Terminate; servers answer Ready/RowDesc/Row/Complete/Error/Notice. The
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
// running for nobody. Prepared statements are per-session names over SQL
// text; the bound statements and compiled plans behind them live in the
// engine's shared PlanCache, so sessions preparing the same statement —
// literal or with `?` parameters — share one parse, one bind and, for binds
// inside a plan's selectivity region, one cached plan.
//
// # Results
//
// A result is streamed, never staged: the session is the engine's RowSink
// (core.Engine.ExecStream) and encodes each row onto the connection while
// the plan root still owns it, through one frame writer, one row encoder
// and one row decoder shared with WriteFrame/WriteMsg/Encode, the Client
// and the shuffle sub-protocol. A cycle is RowDesc Row* (Complete | Error);
// the statement's admission slot covers delivery, so a client that stops
// reading holds it until it reads on or disconnects.
//
// # Admission
//
// The engine's wlm.Admitter MPL gate and workspace-memory pool gatekeep for
// real here: when the gate is full, sessions queue FIFO (wlm.WaitSlot)
// instead of failing, bounded by the server's queue timeout. The client
// sees the backpressure as it happens — a WLM_QUEUED notice on entering the
// queue, WLM_ADMITTED when its turn comes, ERR_ADMIT on aging out — and
// each query's queued/admitted/running/done phases land in the engine's
// lifecycle registry, so the /queries debug endpoint shows the same story.
package server
