package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rqp/internal/exec"
	"rqp/internal/types"
)

// TestFrameRoundTrip checks the frame envelope itself: header layout,
// payload fidelity, and clean EOF between frames.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		f, err := ReadFrame(&buf, MaxFrame)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if f.Type != byte(i+1) {
			t.Fatalf("frame %d: type %#x, want %#x", i, f.Type, i+1)
		}
		if len(f.Payload) != len(p) || (len(p) > 0 && !bytes.Equal(f.Payload, p)) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf, MaxFrame); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
}

// TestFrameTooLarge checks the allocation guard: a length prefix above the
// cap must fail with ErrFrameTooLarge before any payload read.
func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgQuery, make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(&buf, 1024)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	if !errors.Is(err, ErrProto) {
		t.Fatalf("oversize should also be a protocol error, got %v", err)
	}
}

// TestFrameTruncated checks that a stream dying inside a frame yields
// ErrUnexpectedEOF, distinct from a clean between-frames EOF — from
// ReadFrame and from the client's reusable reader alike.
func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgQuery, []byte("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgRow, RowMsg{Values: sampleValues()}.Encode()); err != nil {
		t.Fatal(err)
	}
	first := frameHeaderLen + len("SELECT 1")
	for cut := 1; cut < buf.Len(); cut++ {
		if cut == first {
			continue // a clean cut between the two frames
		}
		r := bytes.NewReader(buf.Bytes()[:cut])
		_, err := ReadFrame(r, MaxFrame)
		if cut > first {
			_, err = ReadFrame(r, MaxFrame)
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: expected ErrUnexpectedEOF, got %v", cut, err)
		}
		checkStreamParity(t, buf.Bytes()[:cut])
	}
}

// checkStreamParity reads data as a stream of frames twice — through
// ReadFrame + DecodeRow, and through the client's path: one reusable payload
// buffer, one row arena — and requires the same accept/reject decision,
// the same error and the same bytes at every step. Rows decoded early must
// also survive the buffer being reused by every later frame.
func checkStreamParity(t *testing.T, data []byte) {
	t.Helper()
	plain := bytes.NewReader(data)
	c := &Client{br: bufio.NewReader(bytes.NewReader(data))}
	var arena exec.RowArena
	type kept struct {
		row     types.Row
		payload []byte
	}
	var rows []kept
	for i := 0; ; i++ {
		want, werr := ReadFrame(plain, MaxFrame)
		got, gerr := c.readFrame()
		if fmt.Sprint(werr) != fmt.Sprint(gerr) {
			t.Fatalf("frame %d: ReadFrame says %v, the reusable reader %v", i, werr, gerr)
		}
		if werr != nil {
			break
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: reusable reader returned type %#x payload %x, want %#x %x", i, got.Type, got.Payload, want.Type, want.Payload)
		}
		wm, wrerr := DecodeRow(want.Payload)
		row, grerr := decodeRow(got.Payload, &arena)
		if fmt.Sprint(wrerr) != fmt.Sprint(grerr) {
			t.Fatalf("frame %d: DecodeRow says %v, the slab decoder %v", i, wrerr, grerr)
		}
		if wrerr != nil {
			continue
		}
		if len(row) != len(wm.Values) {
			t.Fatalf("frame %d: slab decoder returned %d values, DecodeRow %d", i, len(row), len(wm.Values))
		}
		rows = append(rows, kept{row, want.Payload})
	}
	for i, k := range rows {
		// Re-encoding is the comparison: canonical, and NaN-proof.
		if enc := (RowMsg{Values: k.row}).Encode(); !bytes.Equal(enc, k.payload) {
			t.Fatalf("row %d changed after later frames were read: re-encodes to %x, arrived as %x", i, enc, k.payload)
		}
	}
}

// TestClientReaderReuse streams rows whose payloads grow and shrink (so the
// reused buffer is overwritten at every length) and hold several
// multi-byte strings each (so they share one backing string per frame).
func TestClientReaderReuse(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		long := strings.Repeat(string(rune('a'+i%26)), 1+(i*37)%300)
		row := types.Row{types.Int(int64(i)), types.Str(long), types.Str("x"), types.Str(""), types.Str(long + "é"), types.Null(), types.Float(float64(i) / 3)}
		if err := WriteMsg(&buf, MsgRow, RowMsg{Values: row}); err != nil {
			t.Fatal(err)
		}
	}
	// One outsized frame in the middle of the stream: read, not retained.
	if err := WriteMsg(&buf, MsgRow, RowMsg{Values: types.Row{types.Str(strings.Repeat("z", 2*maxPooledEncodeBuf))}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(&buf, MsgRow, RowMsg{Values: sampleValues()}); err != nil {
		t.Fatal(err)
	}
	checkStreamParity(t, buf.Bytes())
}

// countingWriter counts Write calls.
type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestFrameWriterOneWrite pins the frame writer: header and payload reach
// the destination in a single Write, through a pooled buffer — so an
// unbuffered socket sees one segment per frame and nothing escapes per
// frame. Encode copies out of the pool once, at the exact size.
func TestFrameWriterOneWrite(t *testing.T) {
	row := RowMsg{Values: sampleValues()}
	payload := row.Encode()
	var w countingWriter
	if err := WriteFrame(&w, MsgRow, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(&w, MsgRow, row); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&w, MsgTerminate, nil); err != nil {
		t.Fatal(err)
	}
	if want := 2*(frameHeaderLen+len(payload)) + frameHeaderLen; w.writes != 3 || w.bytes != want {
		t.Fatalf("3 frames took %d writes and %d bytes, want 3 and %d", w.writes, w.bytes, want)
	}
	if cap(payload) != len(payload) {
		t.Errorf("Encode returned a %d-byte payload in a %d-byte buffer", len(payload), cap(payload))
	}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"WriteFrame", 0, func() { WriteFrame(io.Discard, MsgRow, payload) }},
		{"WriteMsg", 1, func() { WriteMsg(io.Discard, MsgRow, row) }}, // the Encoder boxing
		{"RowMsg.Encode", 2, func() { payload = row.Encode() }},       // boxing + the payload
	} {
		if got := testing.AllocsPerRun(200, tc.f); got > tc.max {
			t.Errorf("%s: %.0f allocations per frame, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

// sampleValues exercises every wire value kind, including zero and negative
// edge cases.
func sampleValues() []types.Value {
	return []types.Value{
		types.Null(),
		types.Int(0),
		types.Int(-1),
		types.Int(1<<62 + 12345),
		types.Float(3.25),
		types.Float(-0.0),
		types.Str(""),
		types.Str("hello, wire"),
		types.Bool(true),
		types.Bool(false),
		types.Date(19000),
	}
}

// TestMessageRoundTrips encodes and decodes every message type in the
// protocol — the acceptance criterion that no frame kind ships without a
// round-trip test. reflect.DeepEqual on the decoded struct catches silent
// field drops.
func TestMessageRoundTrips(t *testing.T) {
	cases := []struct {
		name   string
		typ    byte
		msg    interface{ Encode() []byte }
		decode func([]byte) (any, error)
	}{
		{"Startup", MsgStartup,
			StartupMsg{Version: ProtocolVersion, Options: map[string]string{"client": "test", "db": "star"}},
			func(p []byte) (any, error) { return DecodeStartup(p) }},
		{"StartupNoOptions", MsgStartup,
			StartupMsg{Version: 7},
			func(p []byte) (any, error) { return DecodeStartup(p) }},
		{"Query", MsgQuery,
			QueryMsg{SQL: "SELECT a FROM r WHERE b = ?", Params: sampleValues()},
			func(p []byte) (any, error) { return DecodeQuery(p) }},
		{"QueryNoParams", MsgQuery,
			QueryMsg{SQL: "SELECT 1 FROM r"},
			func(p []byte) (any, error) { return DecodeQuery(p) }},
		{"Prepare", MsgPrepare,
			PrepareMsg{Name: "q1", SQL: "SELECT a FROM r WHERE b = ?"},
			func(p []byte) (any, error) { return DecodePrepare(p) }},
		{"Bind", MsgBind,
			BindMsg{Name: "q1", Params: sampleValues()},
			func(p []byte) (any, error) { return DecodeBind(p) }},
		{"Execute", MsgExecute,
			ExecuteMsg{MaxRows: 500},
			func(p []byte) (any, error) { return DecodeExecute(p) }},
		{"Close", MsgClose,
			CloseMsg{Name: "q1"},
			func(p []byte) (any, error) { return DecodeClose(p) }},
		{"Ready", MsgReady,
			ReadyMsg{SessionID: 42, Status: statusIdle},
			func(p []byte) (any, error) { return DecodeReady(p) }},
		{"RowDesc", MsgRowDesc,
			RowDescMsg{Columns: []string{"a", "b", "sum_c"}},
			func(p []byte) (any, error) { return DecodeRowDesc(p) }},
		{"RowDescEmpty", MsgRowDesc,
			RowDescMsg{},
			func(p []byte) (any, error) { return DecodeRowDesc(p) }},
		{"Row", MsgRow,
			RowMsg{Values: sampleValues()},
			func(p []byte) (any, error) { return DecodeRow(p) }},
		{"Complete", MsgComplete,
			CompleteMsg{Tag: "SELECT", Rows: 1234, CostUnits: 987.5},
			func(p []byte) (any, error) { return DecodeComplete(p) }},
		{"Error", MsgError,
			ErrorMsg{Code: CodeExec, Message: "join exploded"},
			func(p []byte) (any, error) { return DecodeError(p) }},
		{"Notice", MsgNotice,
			NoticeMsg{Code: NoticeQueued, Message: "gate full"},
			func(p []byte) (any, error) { return DecodeNotice(p) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := tc.msg.Encode()

			// Through the full frame envelope, not just the payload.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.typ, enc); err != nil {
				t.Fatal(err)
			}
			f, err := ReadFrame(&buf, MaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			if f.Type != tc.typ {
				t.Fatalf("type %#x, want %#x", f.Type, tc.typ)
			}

			got, err := tc.decode(f.Payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			want := reflect.ValueOf(tc.msg).Interface()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
			}

			// Re-encoding the decoded message must be byte-identical — the
			// property that makes the encoding canonical.
			re := got.(interface{ Encode() []byte }).Encode()
			if !bytes.Equal(re, enc) {
				t.Fatalf("re-encode not canonical:\n got %x\nwant %x", re, enc)
			}
		})
	}
}

// TestDecodeRejectsTrailingGarbage checks that every decoder refuses
// payloads with bytes past the message end — over-long payloads must not
// silently pass.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	p := append(QueryMsg{SQL: "SELECT 1 FROM r"}.Encode(), 0xFF)
	if _, err := DecodeQuery(p); !errors.Is(err, ErrProto) {
		t.Fatalf("expected ErrProto on trailing garbage, got %v", err)
	}
}

// TestDecodeRejectsTruncation walks every prefix of a composite payload
// through its decoder: all must fail cleanly (no panic, ErrProto). Row
// payloads go through the one-shot and the slab decoder.
func TestDecodeRejectsTruncation(t *testing.T) {
	full := QueryMsg{SQL: "SELECT a FROM r WHERE b = ?", Params: sampleValues()}.Encode()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeQuery(full[:cut]); !errors.Is(err, ErrProto) {
			t.Fatalf("cut at %d: expected ErrProto, got %v", cut, err)
		}
	}
	row := RowMsg{Values: sampleValues()}.Encode()
	var arena exec.RowArena
	for cut := 0; cut < len(row); cut++ {
		if _, err := DecodeRow(row[:cut]); !errors.Is(err, ErrProto) {
			t.Fatalf("row cut at %d: expected ErrProto, got %v", cut, err)
		}
		if _, err := decodeRow(row[:cut], &arena); !errors.Is(err, ErrProto) {
			t.Fatalf("row cut at %d: slab decoder: expected ErrProto, got %v", cut, err)
		}
	}
	if _, err := decodeRow(append(row, 0xFF), &arena); !errors.Is(err, ErrProto) {
		t.Fatalf("slab decoder: expected ErrProto on trailing garbage, got %v", err)
	}
	if _, err := decodeRow([]byte{0, 1, 0x7F}, &arena); !errors.Is(err, ErrProto) {
		t.Fatalf("slab decoder: expected ErrProto on unknown kind, got %v", err)
	}
}

// TestDecodeRejectsUnknownValueKind checks the value decoder's kind guard.
func TestDecodeRejectsUnknownValueKind(t *testing.T) {
	w := &wireWriter{}
	w.str("SELECT ?")
	w.u16(1)
	w.byte(0x7F) // no such kind
	if _, err := DecodeQuery(w.buf); !errors.Is(err, ErrProto) {
		t.Fatalf("expected ErrProto on unknown kind, got %v", err)
	}
}

// TestHostileCountPrefix checks that a huge declared count with a tiny
// payload fails without attempting a giant allocation: the count is checked
// against the bytes that are left before any row is carved.
func TestHostileCountPrefix(t *testing.T) {
	w := &wireWriter{}
	w.str("SELECT ?")
	w.u16(0xFFFF) // claims 65535 params, provides none
	if _, err := DecodeQuery(w.buf); !errors.Is(err, ErrProto) {
		t.Fatalf("expected ErrProto on hostile count, got %v", err)
	}
	row := []byte{0xFF, 0xFF, wireNull, wireNull} // claims 65535 values, holds two
	if _, err := DecodeRow(row); !errors.Is(err, ErrProto) {
		t.Fatalf("expected ErrProto on hostile row count, got %v", err)
	}
	// No slab for the claimed 65 535 values (2.6 MB) is carved before the
	// check: the failed decode allocates its error and little else. Bytes,
	// not an allocation count — counts of one or two differ by one under the
	// race detector from run to run.
	var arena exec.RowArena
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decodeRow(row, &arena)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 4<<10 {
		t.Errorf("a hostile row count allocated %d B per decode: the slab was carved before the check", per)
	}
	var stream bytes.Buffer
	WriteFrame(&stream, MsgRow, row)
	WriteFrame(&stream, MsgRow, RowMsg{Values: sampleValues()}.Encode())
	checkStreamParity(t, stream.Bytes())
}

// FuzzFrame feeds raw bytes through the frame reader and all message
// decoders: nothing may panic, and whatever decodes must re-encode
// canonically.
func FuzzFrame(f *testing.F) {
	// Seed corpus: every valid message framed, plus deliberately malformed
	// frames — truncated header, oversized length prefix, trailing garbage,
	// unknown value kind, hostile count.
	seed := func(typ byte, payload []byte) {
		var buf bytes.Buffer
		WriteFrame(&buf, typ, payload)
		f.Add(buf.Bytes())
	}
	seed(MsgStartup, StartupMsg{Version: ProtocolVersion, Options: map[string]string{"a": "b"}}.Encode())
	seed(MsgQuery, QueryMsg{SQL: "SELECT a FROM r", Params: sampleValues()}.Encode())
	seed(MsgPrepare, PrepareMsg{Name: "q", SQL: "SELECT 1 FROM r"}.Encode())
	seed(MsgBind, BindMsg{Name: "q", Params: sampleValues()}.Encode())
	seed(MsgExecute, ExecuteMsg{MaxRows: 7}.Encode())
	seed(MsgClose, CloseMsg{Name: "q"}.Encode())
	seed(MsgReady, ReadyMsg{SessionID: 1, Status: statusIdle}.Encode())
	seed(MsgRowDesc, RowDescMsg{Columns: []string{"a"}}.Encode())
	seed(MsgRow, RowMsg{Values: sampleValues()}.Encode())
	seed(MsgComplete, CompleteMsg{Tag: "SELECT", Rows: 1, CostUnits: 2}.Encode())
	seed(MsgError, ErrorMsg{Code: CodeProto, Message: "x"}.Encode())
	seed(MsgNotice, NoticeMsg{Code: NoticeQueued, Message: "y"}.Encode())
	f.Add([]byte{})                                         // empty stream
	f.Add([]byte{MsgQuery})                                 // truncated header
	f.Add([]byte{MsgQuery, 0xFF, 0xFF, 0xFF, 0xFF})         // oversized length
	f.Add([]byte{MsgQuery, 0, 0, 0, 2, 'a'})                // short payload
	f.Add(append([]byte{MsgQuery, 0, 0, 0, 5}, "abcde"...)) // garbage SQL length
	{
		w := &wireWriter{}
		w.str("SELECT ?")
		w.u16(0xFFFF)
		seed(MsgQuery, w.buf)
	}
	// Shuffle sub-protocol: every frame kind, then the malformed shapes its
	// decoders must refuse — truncated route batch, bad shard id, over-cap
	// batch count.
	seed(MsgShardHello, shufSampleHello().Encode())
	seed(MsgRouteBatch, shufSampleBuildBatch().Encode())
	seed(MsgRouteBatch, shufSampleProbeBatch().Encode())
	seed(MsgShardEOF, ShardEOFMsg{JoinID: 7, Phase: ShufPhaseProbe, Src: 2}.Encode())
	seed(MsgShardAccept, ShardAcceptMsg{JoinID: 7, Credit: shufCreditWindow}.Encode())
	seed(MsgShardAck, ShardAckMsg{JoinID: 7, Credit: 16}.Encode())
	seed(MsgOutBatch, OutBatchMsg{JoinID: 7, Rows: []exec.ShufOut{{Seq: 1, BIdx: -1, Row: sampleValues()}}}.Encode())
	seed(MsgShardDone, ShardDoneMsg{JoinID: 7, OutRows: 9, UnitsScaled: 1 << 40}.Encode())
	seed(MsgShardErr, ShardErrMsg{JoinID: 7, Code: CodeExec, Message: "shard died"}.Encode())
	{
		full := shufSampleProbeBatch().Encode()
		seed(MsgRouteBatch, full[:len(full)/2]) // truncated mid-batch
	}
	{
		h := shufSampleHello()
		h.Shard = h.Shards // bad shard id: index outside [0, Shards)
		seed(MsgShardHello, h.Encode())
	}
	{
		w := &wireWriter{}
		w.u64(7)
		w.byte(ShufPhaseBuild)
		w.u16(0)
		w.u16(shufBatchRows + 1) // over-cap batch count, no rows behind it
		seed(MsgRouteBatch, w.buf)
	}
	f.Add([]byte{MsgRouteBatch, 0xFF, 0xFF, 0xFF, 0xFF}) // over-cap frame length

	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreamParity(t, data)
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r, MaxFrame)
		if err != nil {
			return // malformed envelope: rejected is the right outcome
		}
		p := fr.Payload
		// Run every decoder over the payload regardless of the type byte —
		// decoders must be safe on arbitrary bytes.
		DecodeStartup(p)
		DecodePrepare(p)
		DecodeBind(p)
		DecodeExecute(p)
		DecodeClose(p)
		DecodeReady(p)
		DecodeRowDesc(p)
		DecodeComplete(p)
		DecodeError(p)
		DecodeNotice(p)
		DecodeShardHello(p)
		DecodeShardEOF(p)
		DecodeShardAccept(p)
		DecodeShardAck(p)
		DecodeShardDone(p)
		DecodeShardErr(p)
		if m, err := DecodeRouteBatch(p); err == nil {
			if !bytes.Equal(m.Encode(), p) {
				t.Fatalf("accepted RouteBatch payload is not canonical: %x", p)
			}
		}
		if m, err := DecodeOutBatch(p); err == nil {
			if !bytes.Equal(m.Encode(), p) {
				t.Fatalf("accepted OutBatch payload is not canonical: %x", p)
			}
		}
		if m, err := DecodeQuery(p); err == nil {
			if !bytes.Equal(m.Encode(), p) {
				t.Fatalf("accepted Query payload is not canonical: %x", p)
			}
		}
		if m, err := DecodeRow(p); err == nil {
			if !bytes.Equal(m.Encode(), p) {
				t.Fatalf("accepted Row payload is not canonical: %x", p)
			}
		}
	})
}
