package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/types"
)

// statusIdle is the MsgReady status byte: the session will accept a command.
const statusIdle = byte('I')

// session is one client connection's server-side state: the frame reader,
// the result stream, and the cooperative cancel flag shared with the
// executing query.
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
}

// serve runs the session to completion: handshake, then one command frame at
// a time until Terminate, connection loss, or a protocol error.
func (s *session) serve() {
	defer s.conn.Close()
	defer close(s.done)

	// Handshake: the first frame must be a Startup with a version we speak.
	f, err := ReadFrame(s.conn, s.srv.cfg.MaxFrame)
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
		f, err := ReadFrame(s.conn, s.srv.cfg.MaxFrame)
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
		s.runStatement(m.SQL, m.Params)
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

// resultStream is the core.RowSink of the statement in flight: it puts each
// row on the wire while the plan root still owns it, so the session never
// holds a result — its memory does not grow with the result's size, and the
// admission slot it holds covers delivery as well as execution. It is also
// the statement's core.AdmissionQueue: at a full gate the engine queues it
// for the server's queue timeout, and the client hears of both ends of the
// wait.
type resultStream struct {
	s         *session
	cols      []string
	described bool // RowDesc is on the wire
	queued    bool // WLM_QUEUED is on the wire
	sent      uint64
}

// QueueWait implements core.AdmissionQueue.
func (st *resultStream) QueueWait() time.Duration { return st.s.srv.cfg.QueueTimeout }

// Queued implements core.AdmissionQueue: the client sees WLM_QUEUED while
// it waits.
func (st *resultStream) Queued(depth int) {
	st.queued = true
	st.s.notice(NoticeQueued, fmt.Sprintf("admission gate full (queue depth %d); waiting up to %s",
		depth, st.s.srv.cfg.QueueTimeout))
}

// Admitted implements core.AdmissionQueue: a statement that queued sends
// WLM_ADMITTED before its result.
func (st *resultStream) Admitted() {
	if st.queued {
		st.s.notice(NoticeAdmitted, "admission slot granted")
	}
}

// Columns implements core.RowSink. RowDesc waits for the first row (or the
// statement's success), so a statement that fails before producing one
// answers with its Error alone.
func (st *resultStream) Columns(names []string) { st.cols = names }

// Row implements core.RowSink: r is encoded, header and payload, into the
// session's buffer and copied onto its writer before Row returns — the
// operator's next Next may overwrite r. A write error stops the statement.
func (st *resultStream) Row(r types.Row) error {
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
		send(st.s, MsgRowDesc, RowDescMsg{Columns: cols})
	}
}

// planColumns is the one column of an EXPLAIN result.
var planColumns = []string{"QUERY PLAN"}

// runStatement executes one statement and streams RowDesc Row* (Complete |
// Error). A SELECT waits for its admission slot inside the
// engine (resultStream is its AdmissionQueue); the slot then covers delivery
// too. EXPLAIN and EXPLAIN ANALYZE answer with their plan text, one row per
// line, tagged EXPLAIN.
func (s *session) runStatement(sqlText string, params []types.Value) {
	s.stream = resultStream{s: s}
	if hook := s.srv.cfg.BeforeExec; hook != nil {
		hook(s.id, sqlText, s.canceled)
	}
	res, err := s.srv.cfg.Engine.ExecStream(sqlText, s.canceled, &s.stream, params...)
	if err != nil {
		switch {
		case errors.Is(err, exec.ErrCanceled):
			s.sendError(CodeCanceled, "query canceled")
		case errors.Is(err, core.ErrAdmissionRejected):
			s.sendError(CodeAdmit, err.Error())
		default:
			s.sendError(CodeExec, err.Error())
		}
		return
	}
	if res.Plan != "" {
		s.stream.cols = planColumns
		for _, line := range strings.Split(strings.TrimSuffix(res.Plan, "\n"), "\n") {
			s.stream.Row(types.Row{types.Str(line)})
		}
		s.complete("EXPLAIN", s.stream.sent, res)
		return
	}
	if len(res.Columns) > 0 {
		s.stream.describe(res.Columns) // a result without rows
	}
	tag := "SELECT"
	rows := s.stream.sent
	if res.Affected > 0 || len(res.Columns) == 0 {
		tag = "OK"
		rows = uint64(res.Affected)
	}
	s.complete(tag, rows, res)
}

// ---- frame writers ----
//
// Only the session loop writes to the connection (the reader never does),
// so no write lock is needed. Write errors mark the session canceled and,
// outside a result stream, are otherwise ignored: the read side will
// observe the dead connection and tear the session down.

// send puts one message on the buffered writer. It takes the message's own
// type, not an Encoder: a frame the session sends is not boxed onto the
// heap on its way out.
func send[M Encoder](s *session, typ byte, m M) {
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
	send(s, MsgReady, ReadyMsg{SessionID: s.id, Status: statusIdle})
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return nil
}

// complete ends a successful statement: its tag, row count, cost units and
// re-plans.
func (s *session) complete(tag string, rows uint64, res *core.Result) {
	send(s, MsgComplete, CompleteMsg{Tag: tag, Rows: rows, CostUnits: res.Cost, Reopts: uint32(res.Reopts)})
}

// sendError reports a statement-level failure; the session stays usable.
func (s *session) sendError(code, msg string) {
	send(s, MsgError, ErrorMsg{Code: code, Message: msg})
}

// notice sends an advisory frame immediately (flushed, not buffered until
// statement end) — a queued client should see WLM_QUEUED while it waits,
// not afterwards.
func (s *session) notice(code, msg string) {
	send(s, MsgNotice, NoticeMsg{Code: code, Message: msg})
	s.flush()
}

// fatal reports a protocol-level failure and is followed by connection
// close: after a framing violation the stream cannot be trusted.
func (s *session) fatal(msg string) {
	send(s, MsgError, ErrorMsg{Code: CodeProto, Message: msg})
	s.flush()
}
