package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/types"
)

// statusIdle is the MsgReady status byte: the session will accept a command.
const statusIdle = byte('I')

// prepared is one named statement in a session's statement namespace.
// Statements are per-session by name; the bound statements and compiled plans
// behind them live in the engine's shared PlanCache, keyed by text, so two
// sessions preparing the same SQL — with or without `?` — share one parse, one
// bind and, bind values permitting, one plan.
type prepared struct {
	name string
	sql  string
}

// portal is a bound statement awaiting Execute: the prepared statement plus
// the parameter values from the most recent Bind.
type portal struct {
	stmt   *prepared
	params []types.Value
}

// session is one client connection's server-side state: the frame reader,
// the prepared-statement namespace, the current portal, and the cooperative
// cancel flag shared with the executing query.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	bw   *bufio.Writer
	// enc is where every outgoing frame is built, header and payload, and
	// handed to bw from in one Write. Only the session loop touches it.
	enc wireWriter
	// stream is the result stream of the statement in flight.
	stream resultStream

	// frames carries command frames from the reader goroutine to the session
	// loop. Closed by the reader on connection end.
	frames chan Frame
	// done is closed when the session loop exits, releasing a reader blocked
	// on the frames channel.
	done chan struct{}
	// cancel is set out-of-band by the reader (MsgCancel, or connection
	// death) and polled by the engine's root drain loop; the session loop
	// clears it as each new command begins, so a cancel targets the statement
	// in flight when it arrived.
	cancel atomic.Bool
	// readErr records why the reader stopped; a wire-level violation here
	// still owes the client an ERR_PROTO frame before close.
	readErr atomic.Value

	stmts  map[string]*prepared
	portal *portal
}

// serve runs the session to completion: handshake, then one command frame at
// a time until Terminate, connection loss, or a protocol error.
func (s *session) serve() {
	defer s.conn.Close()
	defer close(s.done)

	// Handshake: the first frame must be a Startup with a version we speak.
	f, err := ReadFrame(s.conn, s.srv.maxFrame)
	if err != nil {
		return
	}
	if f.Type != MsgStartup {
		s.fatal(fmt.Sprintf("expected Startup, got 0x%02x", f.Type))
		return
	}
	st, err := DecodeStartup(f.Payload)
	if err != nil {
		s.fatal(err.Error())
		return
	}
	if st.Version != ProtocolVersion {
		s.fatal(fmt.Sprintf("unsupported protocol version %d (server speaks %d)", st.Version, ProtocolVersion))
		return
	}
	if err := s.ready(); err != nil {
		return
	}

	// Reader goroutine: turns the byte stream into command frames and
	// handles Cancel out-of-band, so a cancel reaches the executing query
	// while the session loop is blocked inside the engine.
	go s.readLoop()

	for f := range s.frames {
		s.cancel.Store(false)
		fatal := s.dispatch(f)
		if fatal {
			return
		}
		if f.Type == MsgTerminate {
			return
		}
		if err := s.ready(); err != nil {
			return
		}
	}
	// Reader closed the channel: the connection died or the client broke
	// framing. A protocol violation still gets its error frame — the write
	// side may well be alive even when the read side is unusable.
	if err, ok := s.readErr.Load().(error); ok && errors.Is(err, ErrProto) {
		s.fatal(err.Error())
	}
}

// readLoop feeds command frames to the session loop. MsgCancel never enters
// the queue — it flips the cancel flag immediately. A dead connection also
// flips the flag, so a client disconnect aborts its in-flight query instead
// of leaving it running to completion for nobody.
func (s *session) readLoop() {
	defer close(s.frames)
	for {
		f, err := ReadFrame(s.conn, s.srv.maxFrame)
		if err != nil {
			s.readErr.Store(err)
			s.cancel.Store(true)
			return
		}
		if f.Type == MsgCancel {
			s.cancel.Store(true)
			continue
		}
		select {
		case s.frames <- f:
		case <-s.done:
			return
		}
		if f.Type == MsgTerminate {
			return
		}
	}
}

// canceled is the cooperative hook handed to the engine.
func (s *session) canceled() bool { return s.cancel.Load() }

// dispatch handles one command frame. It returns true when the error was
// fatal to the connection (protocol violations); statement-level errors are
// reported in-band and leave the session usable.
func (s *session) dispatch(f Frame) (fatal bool) {
	switch f.Type {
	case MsgQuery:
		m, err := DecodeQuery(f.Payload)
		if err != nil {
			s.fatal(err.Error())
			return true
		}
		s.runStatement(m.SQL, m.Params, 0)
	case MsgPrepare:
		m, err := DecodePrepare(f.Payload)
		if err != nil {
			s.fatal(err.Error())
			return true
		}
		s.handlePrepare(m)
	case MsgBind:
		m, err := DecodeBind(f.Payload)
		if err != nil {
			s.fatal(err.Error())
			return true
		}
		s.handleBind(m)
	case MsgExecute:
		m, err := DecodeExecute(f.Payload)
		if err != nil {
			s.fatal(err.Error())
			return true
		}
		s.handleExecute(m)
	case MsgClose:
		m, err := DecodeClose(f.Payload)
		if err != nil {
			s.fatal(err.Error())
			return true
		}
		s.handleClose(m)
	case MsgTerminate:
		// Orderly goodbye; serve exits after this returns.
	case MsgStartup:
		s.fatal("duplicate Startup")
		return true
	default:
		s.fatal(fmt.Sprintf("unknown message type 0x%02x", f.Type))
		return true
	}
	return false
}

// handlePrepare validates and names a statement. Parse errors surface at
// prepare time so a bad statement fails before it is ever bound, and the
// engine keeps the parse (core.Engine.Prepare): Execute finds the statement
// in the plan cache by its text.
func (s *session) handlePrepare(m PrepareMsg) {
	if m.Name == "" {
		s.sendError(CodeParse, "prepared statement name must not be empty")
		return
	}
	if err := s.srv.eng.Prepare(m.SQL); err != nil {
		s.sendError(CodeParse, err.Error())
		return
	}
	s.stmts[m.Name] = &prepared{name: m.Name, sql: m.SQL}
	s.complete("PREPARE", 0, 0)
}

// handleBind creates the session portal from a prepared statement and
// parameter values.
func (s *session) handleBind(m BindMsg) {
	st, ok := s.stmts[m.Name]
	if !ok {
		s.sendError(CodeUnknownStmt, fmt.Sprintf("unknown prepared statement %q", m.Name))
		return
	}
	s.portal = &portal{stmt: st, params: m.Params}
	s.complete("BIND", 0, 0)
}

// handleExecute runs the current portal.
func (s *session) handleExecute(m ExecuteMsg) {
	if s.portal == nil {
		s.sendError(CodeNoPortal, "Execute without a bound portal")
		return
	}
	s.runStatement(s.portal.stmt.sql, s.portal.params, m.MaxRows)
}

// handleClose deallocates a prepared statement (and the portal, if it was
// bound from it).
func (s *session) handleClose(m CloseMsg) {
	st, ok := s.stmts[m.Name]
	if !ok {
		s.sendError(CodeUnknownStmt, fmt.Sprintf("unknown prepared statement %q", m.Name))
		return
	}
	delete(s.stmts, m.Name)
	if s.portal != nil && s.portal.stmt == st {
		s.portal = nil
	}
	s.complete("CLOSE", 0, 0)
}

// errAdmitTimeout marks a query that aged out of the admission queue.
var errAdmitTimeout = errors.New("server: admission queue timeout")

// resultStream is the core.RowSink of the statement in flight: it puts each
// row on the wire while the plan root still owns it, so the session never
// holds a result — its memory does not grow with the result's size, and the
// admission slot it holds covers delivery as well as execution.
type resultStream struct {
	s         *session
	cols      []string
	described bool   // RowDesc is on the wire
	maxRows   uint32 // rows to send, 0 = all
	sent      uint64
}

// Columns implements core.RowSink. RowDesc waits for the first row (or the
// statement's success), so a statement that fails before producing one
// answers with its Error alone.
func (st *resultStream) Columns(names []string) { st.cols = names }

// Row implements core.RowSink: r is encoded, header and payload, into the
// session's buffer and copied onto its writer before Row returns — the
// operator's next Next may overwrite r. A write error stops the statement.
func (st *resultStream) Row(r types.Row) error {
	if st.maxRows > 0 && st.sent >= uint64(st.maxRows) {
		return nil // the cap trims the stream; the statement runs to completion
	}
	st.describe(st.cols)
	st.sent++
	s := st.s
	s.enc.beginFrame(MsgRow)
	appendValues(&s.enc, r)
	return s.writeFrame()
}

// describe sends RowDesc unless it is out already.
func (st *resultStream) describe(cols []string) {
	if !st.described {
		st.described = true
		st.s.send(MsgRowDesc, RowDescMsg{Columns: cols})
	}
}

// runStatement executes one statement through the admission gate and
// streams RowDesc Row* (Complete | Error). maxRows caps the rows sent (0 =
// all); the statement still runs to completion server-side.
func (s *session) runStatement(sqlText string, params []types.Value, maxRows uint32) {
	s.stream = resultStream{s: s, maxRows: maxRows}
	res, err := s.execAdmitted(sqlText, params)
	if err != nil {
		switch {
		case errors.Is(err, exec.ErrCanceled):
			s.sendError(CodeCanceled, "query canceled")
		case errors.Is(err, errAdmitTimeout), errors.Is(err, core.ErrAdmissionRejected):
			s.sendError(CodeAdmit, err.Error())
		default:
			s.sendError(CodeExec, err.Error())
		}
		return
	}
	if len(res.Columns) > 0 {
		s.stream.describe(res.Columns) // a result without rows, or an EXPLAIN
	}
	tag := "SELECT"
	rows := s.stream.sent
	if res.Affected > 0 || len(res.Columns) == 0 {
		tag = "OK"
		rows = uint64(res.Affected)
	}
	s.complete(tag, rows, res.Cost)
}

// execAdmitted runs a statement behind the WLM gate, its rows going to
// s.stream. When the gate is full the session queues (FIFO) rather than
// failing: the client gets a WLM_QUEUED notice immediately — backpressure
// it can see while it waits — and a WLM_ADMITTED notice when its turn
// comes. The slot then covers delivery too: it is held until the last row
// is on the connection's writer or the statement fails. Queueing is bounded
// by the server's queue timeout; aging out yields ERR_ADMIT. The engine
// still owns the authoritative TryAdmit, so a slot observed free here can
// be lost to a concurrent arrival — that race surfaces as
// ErrAdmissionRejected and sends the session back into the queue until its
// deadline.
func (s *session) execAdmitted(sqlText string, params []types.Value) (*core.Result, error) {
	adm := s.srv.eng.Cfg.Admission
	deadline := time.Now().Add(s.srv.queueTimeout)
	queuedNotice := false
	for {
		if s.canceled() {
			return nil, exec.ErrCanceled
		}
		if adm != nil && !adm.HasCapacity() {
			if !queuedNotice {
				_, depth, _ := adm.QueueStats()
				s.notice(NoticeQueued, fmt.Sprintf("admission gate full (queue depth %d); waiting up to %s",
					depth+1, s.srv.queueTimeout))
				queuedNotice = true
			}
			remain := time.Until(deadline)
			if remain <= 0 {
				return nil, fmt.Errorf("%w after %s", errAdmitTimeout, s.srv.queueTimeout)
			}
			// Bounded parks keep the wait responsive to out-of-band cancels
			// and disconnects; WaitSlot itself wakes in FIFO order.
			if remain > queuePollInterval {
				remain = queuePollInterval
			}
			adm.WaitSlot(remain)
			continue
		}
		if queuedNotice {
			s.notice(NoticeAdmitted, "admission slot granted")
			queuedNotice = false
		}
		if hook := s.srv.beforeExec; hook != nil {
			hook(s.id, sqlText, s.canceled)
		}
		res, err := s.srv.eng.ExecStream(sqlText, s.canceled, &s.stream, params...)
		if err != nil && errors.Is(err, core.ErrAdmissionRejected) && time.Now().Before(deadline) {
			continue // lost the slot race; re-queue
		}
		return res, err
	}
}

// queuePollInterval bounds one WaitSlot park so queued sessions notice
// cancels and disconnects promptly.
const queuePollInterval = 25 * time.Millisecond

// ---- frame writers ----
//
// Only the session loop writes to the connection (the reader never does),
// so no write lock is needed. Write errors mark the session canceled and,
// outside a result stream, are otherwise ignored: the read side will
// observe the dead connection and tear the session down.

// send puts one message on the buffered writer.
func (s *session) send(typ byte, m Encoder) {
	s.enc.beginFrame(typ)
	m.encodeTo(&s.enc)
	s.writeFrame()
}

// writeFrame completes the frame begun in s.enc and hands it to the
// buffered writer in one Write (which blocks while the client is not
// reading and the socket is full).
func (s *session) writeFrame() error {
	_, err := s.bw.Write(s.enc.endFrame())
	if err != nil {
		s.cancel.Store(true)
	}
	if cap(s.enc.buf) > maxPooledEncodeBuf {
		s.enc.buf = nil
	}
	return err
}

// flush pushes buffered frames to the wire.
func (s *session) flush() {
	if err := s.bw.Flush(); err != nil {
		s.cancel.Store(true)
	}
}

// ready ends a command cycle: flushes pending frames and tells the client
// the session is idle again.
func (s *session) ready() error {
	s.send(MsgReady, ReadyMsg{SessionID: s.id, Status: statusIdle})
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return nil
}

// complete ends a successful statement.
func (s *session) complete(tag string, rows uint64, cost float64) {
	s.send(MsgComplete, CompleteMsg{Tag: tag, Rows: rows, CostUnits: cost})
}

// sendError reports a statement-level failure; the session stays usable.
func (s *session) sendError(code, msg string) {
	s.send(MsgError, ErrorMsg{Code: code, Message: msg})
}

// notice sends an advisory frame immediately (flushed, not buffered until
// statement end) — a queued client should see WLM_QUEUED while it waits,
// not afterwards.
func (s *session) notice(code, msg string) {
	s.send(MsgNotice, NoticeMsg{Code: code, Message: msg})
	s.flush()
}

// fatal reports a protocol-level failure and is followed by connection
// close: after a framing violation the stream cannot be trusted.
func (s *session) fatal(msg string) {
	s.send(MsgError, ErrorMsg{Code: CodeProto, Message: msg})
	s.flush()
}
