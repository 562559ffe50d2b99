package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rqp/internal/exec"
	"rqp/internal/spare"
	"rqp/internal/types"
)

// ProtocolVersion is the wire-protocol revision this package speaks. A
// startup frame carrying any other version is refused with ErrProto so an
// incompatible client fails loudly at the handshake instead of strangely
// mid-session. See docs/WIRE_PROTOCOL.md for the normative specification.
const ProtocolVersion = 2

// Message type bytes. Client-to-server types occupy 0x01–0x7f, server-to-
// client types set the high bit — a deliberate asymmetry so a captured
// stream's direction is readable straight off the type byte. 0x03–0x05 and
// 0x07 are retired (protocol version 1's Prepare, Bind, Execute and Close):
// a session answers them as any unknown type, with a fatal ERR_PROTO.
const (
	// Client → server.
	MsgStartup   = byte(0x01) // protocol version + session options
	MsgQuery     = byte(0x02) // one SQL statement, optional params
	MsgCancel    = byte(0x06) // best-effort cancel of the in-flight query
	MsgTerminate = byte(0x08) // orderly goodbye

	// Server → client.
	MsgReady    = byte(0x81) // session id + idle status: ready for a command
	MsgRowDesc  = byte(0x82) // result column names
	MsgRow      = byte(0x83) // one result row
	MsgComplete = byte(0x84) // statement done: tag, row count, cost units
	MsgError    = byte(0x85) // statement or protocol failure
	MsgNotice   = byte(0x86) // advisory (admission queueing, degradation)
)

// Error codes carried by MsgError and MsgNotice frames. The code is a
// stable machine-readable string; the human message may change freely.
const (
	CodeProto      = "ERR_PROTO"    // malformed or out-of-order frame (fatal)
	CodeParse      = "ERR_PARSE"    // SQL failed to parse/bind
	CodeExec       = "ERR_EXEC"     // statement failed during execution
	CodeAdmit      = "ERR_ADMIT"    // admission queue timeout, query never ran
	CodeCanceled   = "ERR_CANCELED" // client Cancel took effect
	NoticeQueued   = "WLM_QUEUED"   // MPL gate full, session is waiting
	NoticeAdmitted = "WLM_ADMITTED" // a previously queued query got its slot
)

// MaxFrame is the default cap on a frame's payload size. A length prefix
// beyond the cap is a protocol error — the guard that keeps one malformed
// or hostile frame header from making the server allocate gigabytes.
const MaxFrame = 1 << 20

// frameHeaderLen is the fixed frame prelude: 1 type byte + 4 length bytes.
const frameHeaderLen = 5

// ErrProto marks a wire-level violation: bad magic, oversized length
// prefix, truncated payload, unknown message or value kind. Protocol errors
// are fatal to the connection — the stream can no longer be trusted.
var ErrProto = errors.New("server: protocol error")

// ErrFrameTooLarge reports a length prefix above the configured cap.
var ErrFrameTooLarge = fmt.Errorf("%w: frame exceeds size cap", ErrProto)

// Frame is one decoded wire frame: a type byte and its raw payload.
type Frame struct {
	Type    byte
	Payload []byte
}

// WriteFrame encodes one frame onto w in a single Write: type byte,
// big-endian uint32 payload length, payload bytes.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	fw := encoders.Get()
	fw.beginFrame(typ)
	fw.buf = append(fw.buf, payload...)
	_, err := w.Write(fw.endFrame())
	fw.release()
	return err
}

// ReadFrame decodes one frame from r, enforcing the payload cap. io.EOF is
// returned bare when the stream ends cleanly between frames; a stream that
// dies inside a frame yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	var hdr [frameHeaderLen]byte
	typ, n, err := readFrameHeader(r, maxPayload, &hdr)
	if err != nil {
		return Frame{}, err
	}
	payload := make([]byte, n)
	if err := readFramePayload(r, payload); err != nil {
		return Frame{}, err
	}
	return Frame{Type: typ, Payload: payload}, nil
}

// readFrameHeader reads and checks one frame header through hdr, scratch
// the caller owns (a long-lived reader keeps one instead of allocating it
// per frame: it escapes through r), and returns the frame's type and
// payload length.
func readFrameHeader(r io.Reader, maxPayload int, hdr *[frameHeaderLen]byte) (typ byte, n int, err error) {
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, 0, err // bare EOF here = clean close between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, err
	}
	size := binary.BigEndian.Uint32(hdr[1:])
	if maxPayload <= 0 {
		maxPayload = MaxFrame
	}
	if size > uint32(maxPayload) {
		return 0, 0, fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, size, maxPayload)
	}
	return hdr[0], int(size), nil
}

// readFramePayload fills p with the payload that follows a frame header.
func readFramePayload(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// ---- payload primitives ----
//
// All integers are big-endian. Strings and byte blobs are u32
// length-prefixed. Values are a kind byte followed by a fixed- or
// length-prefixed payload (see appendValue). Decoding is allocation-bounded
// by the frame cap, and every read checks remaining length so truncated
// payloads fail with ErrProto instead of panicking.

type wireWriter struct{ buf []byte }

// Encoder is a wire message that renders its payload into a caller-supplied
// writer. The unexported method keeps implementations inside this package:
// every message type satisfies it, and WriteMsg uses it to encode through a
// spare buffer instead of allocating per frame.
type Encoder interface{ encodeTo(w *wireWriter) }

// maxPooledEncodeBuf caps the encode and frame-read buffers that outlive
// one frame (kept spare, session- or client-owned). A rare giant frame (a
// wide row of long strings) should not pin its buffer forever.
const maxPooledEncodeBuf = 64 << 10

// encoders keeps frame writers for the next frame, where no garbage
// collection empties them.
var encoders spare.List[wireWriter]

// beginFrame empties w and reserves the frame header for typ; the payload
// is appended behind it and endFrame completes the frame. Every frame this
// package sends is built this way, so it reaches its writer in one Write.
func (w *wireWriter) beginFrame(typ byte) { w.buf = append(w.buf[:0], typ, 0, 0, 0, 0) }

// endFrame patches the payload length into the reserved header and returns
// the whole frame.
func (w *wireWriter) endFrame() []byte {
	binary.BigEndian.PutUint32(w.buf[1:frameHeaderLen], uint32(len(w.buf)-frameHeaderLen))
	return w.buf
}

// release keeps a writer for the next frame.
func (w *wireWriter) release() {
	if cap(w.buf) <= maxPooledEncodeBuf {
		encoders.Put(w)
	}
}

// WriteMsg encodes m through a spare buffer and writes it to dst as one
// frame in one Write. This is the allocation-free send path for the frames
// sent millions of times — the shuffle's route and out batches; encode
// allocates a buffer the caller keeps (fine for handshakes and tests).
// Result rows take the same frame writer through the session's own buffer,
// without the Encoder boxing (resultStream.Row).
func WriteMsg(dst io.Writer, typ byte, m Encoder) error {
	_, err := writeMsg(dst, typ, m)
	return err
}

// writeMsg is WriteMsg reporting the frame's size on the wire. A nil m
// sends an empty payload.
func writeMsg(dst io.Writer, typ byte, m Encoder) (int, error) {
	w := encoders.Get()
	w.beginFrame(typ)
	if m != nil {
		m.encodeTo(w)
	}
	n, err := dst.Write(w.endFrame())
	w.release()
	return n, err
}

// encode renders m's payload through a spare buffer and copies it out once,
// at its exact size, into a buffer the caller owns (so it may outlive the
// call, unlike WriteMsg's spare buffer).
func encode(m Encoder) []byte {
	w := encoders.Get()
	w.buf = w.buf[:0]
	m.encodeTo(w)
	out := make([]byte, len(w.buf))
	copy(out, w.buf)
	w.release()
	return out
}

func (w *wireWriter) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *wireWriter) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *wireWriter) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *wireWriter) byte(b byte)  { w.buf = append(w.buf, b) }
func (w *wireWriter) f64(v float64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v))
}
func (w *wireWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type wireReader struct {
	buf []byte
	off int
	err error
	// text is string(buf), made when the first multi-byte string is read:
	// every string the payload holds is a substring of it, so a payload
	// costs at most one string allocation however many strings it carries
	// (and buf itself may be a buffer the next frame overwrites).
	text string
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated payload", ErrProto)
	}
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *wireReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) f64() float64 {
	return math.Float64frombits(r.u64())
}

func (r *wireReader) str() string {
	n := r.u32()
	b := r.take(int(n))
	if len(b) <= 1 {
		return string(b) // "" or one byte: the runtime allocates neither
	}
	if r.text == "" {
		r.text = string(r.buf)
	}
	return r.text[r.off-len(b) : r.off]
}

// done reports decode success: no error and no trailing garbage.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrProto, len(r.buf)-r.off)
	}
	return nil
}

// Value kind bytes on the wire.
const (
	wireNull   = byte('N')
	wireInt    = byte('i')
	wireFloat  = byte('f')
	wireString = byte('s')
	wireBool   = byte('b')
	wireDate   = byte('d')
)

// appendValues is the one row encoder: a u16 count, then each value. Result
// rows, statement parameters and shuffled rows all go through it.
func appendValues(w *wireWriter, vals []types.Value) {
	w.u16(uint16(len(vals)))
	for _, v := range vals {
		appendValue(w, v)
	}
}

// appendValue encodes one typed value: kind byte, then for ints/dates an
// 8-byte two's-complement payload, floats 8-byte IEEE 754, bools one byte,
// strings a u32 length prefix + bytes, NULL nothing.
func appendValue(w *wireWriter, v types.Value) {
	switch v.K {
	case types.KindNull:
		w.byte(wireNull)
	case types.KindInt:
		w.byte(wireInt)
		w.u64(uint64(v.I))
	case types.KindFloat:
		w.byte(wireFloat)
		w.f64(v.F)
	case types.KindString:
		w.byte(wireString)
		w.str(v.S)
	case types.KindBool:
		w.byte(wireBool)
		if v.I != 0 {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case types.KindDate:
		w.byte(wireDate)
		w.u64(uint64(v.I))
	default:
		// Unknown kinds encode as NULL rather than corrupting the frame; the
		// engine has no such kinds today.
		w.byte(wireNull)
	}
}

// readValue decodes one typed value.
func readValue(r *wireReader) types.Value {
	switch k := r.byte(); k {
	case wireNull:
		return types.Null()
	case wireInt:
		return types.Int(int64(r.u64()))
	case wireFloat:
		return types.Float(r.f64())
	case wireString:
		return types.Str(r.str())
	case wireBool:
		switch b := r.byte(); b {
		case 0:
			return types.Bool(false)
		case 1:
			return types.Bool(true)
		default:
			// Strict: exactly 0 or 1, so the encoding stays canonical
			// (decode→encode is byte-identical).
			if r.err == nil {
				r.err = fmt.Errorf("%w: bad bool byte 0x%02x", ErrProto, b)
			}
			return types.Null()
		}
	case wireDate:
		return types.Date(int64(r.u64()))
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown value kind 0x%02x", ErrProto, k)
		}
		return types.Null()
	}
}

// maxWireValues bounds per-frame value and column counts far above any real
// query's needs while keeping a hostile count prefix from pre-allocating
// unbounded slices.
const maxWireValues = 1 << 16

// readValues is the one row decoder: it reads a u16 count and that many
// values into a row carved from a (geometrically growing slabs, so a stream
// of rows costs an allocation per few hundred, not one each). A count the
// rest of the payload cannot hold — every value is at least its kind byte —
// fails before anything is carved.
func readValues(r *wireReader, a *exec.RowArena) []types.Value {
	n := r.valueCount()
	if n == 0 {
		return nil
	}
	return r.values(a.Alloc(n))
}

// valueCount reads a row's u16 value count; 0 when it fails.
func (r *wireReader) valueCount() int {
	n := int(r.u16())
	if n > maxWireValues || n > len(r.buf)-r.off {
		r.fail()
		return 0
	}
	return n
}

// values fills out with the next len(out) values.
func (r *wireReader) values(out []types.Value) []types.Value {
	for i := 0; i < len(out) && r.err == nil; i++ {
		out[i] = readValue(r)
	}
	return out
}

// ---- message payloads ----

// StartupMsg opens a session: the protocol version and free-form options
// (reserved for future use: client name, default database, …).
type StartupMsg struct {
	Version uint16
	Options map[string]string
}

func (m StartupMsg) encodeTo(w *wireWriter) {
	w.u16(m.Version)
	w.u16(uint16(len(m.Options)))
	// Deterministic option order keeps encode→decode→encode stable for the
	// fuzz corpus; map order would differ run to run.
	keys := make([]string, 0, len(m.Options))
	for k := range m.Options {
		keys = append(keys, k)
	}
	sortStrings(keys)
	for _, k := range keys {
		w.str(k)
		w.str(m.Options[k])
	}
}

// DecodeStartup parses a MsgStartup payload.
func DecodeStartup(p []byte) (StartupMsg, error) {
	r := &wireReader{buf: p}
	m := StartupMsg{Version: r.u16()}
	n := int(r.u16())
	if n > 0 {
		m.Options = make(map[string]string, n)
		for i := 0; i < n && r.err == nil; i++ {
			k := r.str()
			m.Options[k] = r.str()
		}
	}
	return m, r.done()
}

// QueryMsg executes one SQL statement with optional positional parameters.
type QueryMsg struct {
	SQL    string
	Params []types.Value
}

func (m QueryMsg) encodeTo(w *wireWriter) {
	w.str(m.SQL)
	appendValues(w, m.Params)
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(p []byte) (QueryMsg, error) {
	r := &wireReader{buf: p}
	var a exec.RowArena
	m := QueryMsg{SQL: r.str()}
	m.Params = readValues(r, &a)
	return m, r.done()
}

// ReadyMsg tells the client the server will accept the next command.
type ReadyMsg struct {
	SessionID uint64
	Status    byte // 'I' idle; reserved for future states
}

func (m ReadyMsg) encodeTo(w *wireWriter) {
	w.u64(m.SessionID)
	w.byte(m.Status)
}

// DecodeReady parses a MsgReady payload.
func DecodeReady(p []byte) (ReadyMsg, error) {
	r := &wireReader{buf: p}
	m := ReadyMsg{SessionID: r.u64(), Status: r.byte()}
	return m, r.done()
}

// RowDescMsg carries the result column names, sent once before row frames.
type RowDescMsg struct {
	Columns []string
}

func (m RowDescMsg) encodeTo(w *wireWriter) {
	w.u16(uint16(len(m.Columns)))
	for _, c := range m.Columns {
		w.str(c)
	}
}

// DecodeRowDesc parses a MsgRowDesc payload.
func DecodeRowDesc(p []byte) (RowDescMsg, error) {
	r := &wireReader{buf: p}
	n := int(r.u16())
	m := RowDescMsg{}
	if n > 0 {
		if n > maxWireValues {
			r.fail()
			return m, r.done()
		}
		m.Columns = make([]string, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			m.Columns = append(m.Columns, r.str())
		}
	}
	return m, r.done()
}

// RowMsg is one result row.
type RowMsg struct {
	Values []types.Value
}

// Encode renders the row payload.
func (m RowMsg) Encode() []byte { return encode(m) }

func (m RowMsg) encodeTo(w *wireWriter) { appendValues(w, m.Values) }

// DecodeRow parses a MsgRow payload.
func DecodeRow(p []byte) (RowMsg, error) {
	var a exec.RowArena
	row, err := decodeRow(p, &a)
	return RowMsg{Values: row}, err
}

// decodeRow parses a MsgRow payload into a row carved from a. p may be
// overwritten afterwards: the row keeps no reference into it.
func decodeRow(p []byte, a *exec.RowArena) (types.Row, error) {
	r := wireReader{buf: p}
	row := readValues(&r, a)
	return row, r.done()
}

// decodeRowInto parses a MsgRow payload into the next row of s (a row of no
// values is still a row of the result). A row carries one value per RowDesc
// column, width of them; any other count is a protocol error, which is what
// lets s hold its rows back to back.
func decodeRowInto(p []byte, s *exec.RowSet, width int) error {
	r := wireReader{buf: p}
	switch n := r.valueCount(); {
	case r.err != nil:
	case n != width:
		r.err = fmt.Errorf("%w: row of %d values in a result of %d columns", ErrProto, n, width)
	default:
		r.values(s.Alloc(width))
	}
	return r.done()
}

// CompleteMsg ends a statement cycle: a command tag ("SELECT", "OK",
// "EXPLAIN"), the returned/affected row count, the simulated cost units the
// statement consumed (the engine's deterministic currency — on the wire so
// a remote client can reason about cost without scraping /metrics), and the
// number of times POP re-planned it.
type CompleteMsg struct {
	Tag       string
	Rows      uint64
	CostUnits float64
	Reopts    uint32
}

func (m CompleteMsg) encodeTo(w *wireWriter) {
	w.str(m.Tag)
	w.u64(m.Rows)
	w.f64(m.CostUnits)
	w.u32(m.Reopts)
}

// DecodeComplete parses a MsgComplete payload.
func DecodeComplete(p []byte) (CompleteMsg, error) {
	r := &wireReader{buf: p}
	m := CompleteMsg{Tag: r.str(), Rows: r.u64(), CostUnits: r.f64(), Reopts: r.u32()}
	return m, r.done()
}

// ErrorMsg reports a failure: a stable machine-readable code and a human
// message. After a statement-level error the session stays usable (a Ready
// follows); after a protocol-level error (CodeProto) the server closes the
// connection.
type ErrorMsg struct {
	Code    string
	Message string
}

func (m ErrorMsg) encodeTo(w *wireWriter) {
	w.str(m.Code)
	w.str(m.Message)
}

// DecodeError parses a MsgError payload.
func DecodeError(p []byte) (ErrorMsg, error) {
	r := &wireReader{buf: p}
	m := ErrorMsg{Code: r.str(), Message: r.str()}
	return m, r.done()
}

// NoticeMsg is an advisory that does not end the statement cycle: admission
// queueing ("WLM_QUEUED"), late admission ("WLM_ADMITTED"), and similar
// backpressure signals ride in notices so clients see why a response is
// slow while it is slow.
type NoticeMsg struct {
	Code    string
	Message string
}

func (m NoticeMsg) encodeTo(w *wireWriter) {
	w.str(m.Code)
	w.str(m.Message)
}

// DecodeNotice parses a MsgNotice payload.
func DecodeNotice(p []byte) (NoticeMsg, error) {
	r := &wireReader{buf: p}
	m := NoticeMsg{Code: r.str(), Message: r.str()}
	return m, r.done()
}

// sortStrings is a dependency-free insertion sort (the option lists it
// orders are tiny).
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
