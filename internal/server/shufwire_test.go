package server

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"rqp/internal/exec"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// shufSampleHello fills every hello field — including all nine cost-model
// charges — with distinct values so DeepEqual catches silent field drops.
func shufSampleHello() ShardHelloMsg {
	return ShardHelloMsg{
		Version: ProtocolVersion, JoinID: 7, Shard: 2, Shards: 4,
		LeftOuter: true, RWidth: 3,
		LeftKeys: []uint16{0, 2}, RightKeys: []uint16{1, 3},
		Model: storage.CostModel{
			SeqPageRead: 1.5, RandPageRead: 2.5, PageWrite: 3.5, RowCPU: 0.125,
			HashProbe: 0.25, Compare: 0.0625, FilterTest: 0.375, ZoneCheck: 0.75,
			NetRow: 1.25,
		},
	}
}

func shufSampleBuildBatch() RouteBatchMsg {
	return RouteBatchMsg{
		JoinID: 7, Phase: ShufPhaseBuild,
		Build: []exec.ShufBuild{
			{Idx: 0, Own: true, Hash: 0xDEADBEEF, Row: sampleValues()},
			{Idx: 41, Own: false, Hash: 1, Row: types.Row{types.Int(9)}},
		},
	}
}

func shufSampleProbeBatch() RouteBatchMsg {
	return RouteBatchMsg{
		JoinID: 7, Phase: ShufPhaseProbe, Src: 3,
		Probe: []exec.ShufProbe{
			{Seq: 1 << 30, Main: true, Row: sampleValues()},
			{Seq: (1 << 30) + 1, Main: false, Row: types.Row{types.Str("dup")}},
		},
	}
}

// TestShuffleMessageRoundTrips holds the shuffle sub-protocol to the same
// bar as the session protocol: every frame kind round-trips through the
// envelope with DeepEqual fidelity and a canonical re-encoding.
func TestShuffleMessageRoundTrips(t *testing.T) {
	cases := []struct {
		name   string
		typ    byte
		msg    Encoder
		decode func([]byte) (any, error)
	}{
		{"ShardHello", MsgShardHello, shufSampleHello(),
			func(p []byte) (any, error) { return DecodeShardHello(p) }},
		{"ShardHelloNoKeys", MsgShardHello,
			ShardHelloMsg{Version: ProtocolVersion, JoinID: 1, Shard: 0, Shards: 1, RWidth: 1},
			func(p []byte) (any, error) { return DecodeShardHello(p) }},
		{"RouteBatchBuild", MsgRouteBatch, shufSampleBuildBatch(),
			func(p []byte) (any, error) { return DecodeRouteBatch(p) }},
		{"RouteBatchProbe", MsgRouteBatch, shufSampleProbeBatch(),
			func(p []byte) (any, error) { return DecodeRouteBatch(p) }},
		{"ShardEOFBuild", MsgShardEOF,
			ShardEOFMsg{JoinID: 7, Phase: ShufPhaseBuild},
			func(p []byte) (any, error) { return DecodeShardEOF(p) }},
		{"ShardEOFProbe", MsgShardEOF,
			ShardEOFMsg{JoinID: 7, Phase: ShufPhaseProbe, Src: 5},
			func(p []byte) (any, error) { return DecodeShardEOF(p) }},
		{"ShardAccept", MsgShardAccept,
			ShardAcceptMsg{JoinID: 7, Credit: shufCreditWindow},
			func(p []byte) (any, error) { return DecodeShardAccept(p) }},
		{"ShardAck", MsgShardAck,
			ShardAckMsg{JoinID: 7, Credit: 16},
			func(p []byte) (any, error) { return DecodeShardAck(p) }},
		{"OutBatch", MsgOutBatch,
			OutBatchMsg{JoinID: 7, Rows: []exec.ShufOut{
				{Seq: 12, BIdx: 3, Row: sampleValues()},
				{Seq: 12, BIdx: -1, Row: types.Row{types.Int(1), types.Null()}},
			}},
			func(p []byte) (any, error) { return DecodeOutBatch(p) }},
		{"ShardDone", MsgShardDone,
			ShardDoneMsg{JoinID: 7, OutRows: 4096, UnitsScaled: 123456789012,
				SeqReads: 17, RandReads: 3, PageWrites: 2, RowsCPU: 99999},
			func(p []byte) (any, error) { return DecodeShardDone(p) }},
		{"ShardErr", MsgShardErr,
			ShardErrMsg{JoinID: 7, Code: CodeAdmit, Message: "worker admission queue timeout"},
			func(p []byte) (any, error) { return DecodeShardErr(p) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := encode(tc.msg)
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
			if want := reflect.ValueOf(tc.msg).Interface(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, want)
			}
			re := encode(got.(Encoder))
			if !bytes.Equal(re, enc) {
				t.Fatalf("re-encode not canonical:\n got %x\nwant %x", re, enc)
			}
		})
	}
}

// TestShuffleDecodeRejectsMalformed pins the decoder guards the fuzzer
// seeds: bad shard ids, over-cap batch counts, unknown phases, truncation.
func TestShuffleDecodeRejectsMalformed(t *testing.T) {
	t.Run("BadShardID", func(t *testing.T) {
		h := shufSampleHello()
		h.Shard = h.Shards // out of range: no valid exchange produces this
		if _, err := DecodeShardHello(encode(h)); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on shard id >= shards, got %v", err)
		}
		h.Shards = 0
		h.Shard = 0
		if _, err := DecodeShardHello(encode(h)); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on zero-width exchange, got %v", err)
		}
	})
	t.Run("OverCapBatch", func(t *testing.T) {
		w := &wireWriter{}
		w.u64(7)
		w.byte(ShufPhaseProbe)
		w.u16(0)
		w.u16(shufBatchRows + 1) // claims more rows than a frame may carry
		if _, err := DecodeRouteBatch(w.buf); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on over-cap batch, got %v", err)
		}
	})
	t.Run("UnknownPhase", func(t *testing.T) {
		m := shufSampleBuildBatch()
		m.Phase = 'x'
		if _, err := DecodeRouteBatch(encode(m)); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on unknown phase, got %v", err)
		}
		if _, err := DecodeShardEOF(encode(ShardEOFMsg{JoinID: 7, Phase: 'x'})); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on unknown eof phase, got %v", err)
		}
	})
	t.Run("Truncated", func(t *testing.T) {
		for name, full := range map[string][]byte{
			"hello": encode(shufSampleHello()),
			"build": encode(shufSampleBuildBatch()),
			"probe": encode(shufSampleProbeBatch()),
		} {
			for cut := 0; cut < len(full); cut++ {
				var err error
				switch name {
				case "hello":
					_, err = DecodeShardHello(full[:cut])
				default:
					_, err = DecodeRouteBatch(full[:cut])
				}
				if !errors.Is(err, ErrProto) {
					t.Fatalf("%s cut at %d: expected ErrProto, got %v", name, cut, err)
				}
			}
		}
	})
	t.Run("TrailingGarbage", func(t *testing.T) {
		p := append(encode(shufSampleProbeBatch()), 0xFF)
		if _, err := DecodeRouteBatch(p); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on trailing garbage, got %v", err)
		}
	})
	t.Run("HostileKeyCount", func(t *testing.T) {
		w := &wireWriter{}
		w.u16(ProtocolVersion)
		w.u64(7)
		w.u16(0)
		w.u16(2)
		w.byte(0)
		w.u16(1)
		w.u16(0xFFFF) // claims 65535 key columns
		if _, err := DecodeShardHello(w.buf); !errors.Is(err, ErrProto) {
			t.Fatalf("expected ErrProto on hostile key count, got %v", err)
		}
	})
}

// TestWriteMsgMatchesEncode pins the pooled fast path's equivalence: the
// bytes WriteMsg puts on the wire are exactly WriteFrame(encode(m)).
func TestWriteMsgMatchesEncode(t *testing.T) {
	msgs := []struct {
		typ byte
		m   Encoder
	}{
		{MsgShardHello, shufSampleHello()},
		{MsgRouteBatch, shufSampleBuildBatch()},
		{MsgRouteBatch, shufSampleProbeBatch()},
		{MsgQuery, QueryMsg{SQL: "SELECT 1 FROM r", Params: sampleValues()}},
		{MsgRow, RowMsg{Values: sampleValues()}},
	}
	for _, tc := range msgs {
		var pooled, plain bytes.Buffer
		if err := WriteMsg(&pooled, tc.typ, tc.m); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&plain, tc.typ, encode(tc.m)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pooled.Bytes(), plain.Bytes()) {
			t.Fatalf("type %#x: pooled frame differs from encode path", tc.typ)
		}
	}
}

// benchBatch builds a full-width route batch — the frame shape the shuffle
// hot path encodes thousands of per query.
func benchBatch() RouteBatchMsg {
	rows := make([]exec.ShufProbe, shufBatchRows)
	for i := range rows {
		rows[i] = exec.ShufProbe{
			Seq: int64(i), Main: true,
			Row: types.Row{types.Int(int64(i)), types.Int(int64(i % 97)), types.Str("payload")},
		}
	}
	return RouteBatchMsg{JoinID: 7, Phase: ShufPhaseProbe, Src: 1, Probe: rows}
}

// BenchmarkWireEncode contrasts the allocating encode path with the pooled
// WriteMsg path on the shuffle hot-path frame. The pooled path must not
// allocate per frame — that is the reason encode buffers are pooled.
func BenchmarkWireEncode(b *testing.B) {
	m := benchBatch()
	b.Run("encode-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = encode(m)
		}
	})
	b.Run("writemsg-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteMsg(io.Discard, MsgRouteBatch, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
