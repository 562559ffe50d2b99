package server

import (
	"fmt"

	"rqp/internal/exec"
	"rqp/internal/storage"
)

// Shuffle frame types: the shard-exchange sub-protocol coordinators and
// rqpserver -shard-worker processes speak over dedicated per-join TCP
// connections. They share the session protocol's frame envelope (type byte
// + u32 length, MaxFrame cap) and typed-value encoding, but occupy their
// own type ranges — 0x41–0x4f coordinator→worker, 0xC1–0xCf worker→
// coordinator (high bit = server-to-client, as in the session protocol) —
// so a captured stream's direction and role stay readable off the type
// byte. See docs/WIRE_PROTOCOL.md for the normative grammar.
const (
	// Coordinator → worker.
	MsgShardHello = byte(0x41) // open one join's exchange: geometry + cost model + credit ask
	MsgRouteBatch = byte(0x42) // up to shufBatchRows routed build or probe rows
	MsgShardEOF   = byte(0x43) // end of the build phase, or of one source's probe stream

	// Worker → coordinator.
	MsgShardAccept = byte(0xC1) // hello accepted: initial credit window grant
	MsgShardAck    = byte(0xC2) // credit replenishment for consumed route batches
	MsgOutBatch    = byte(0xC3) // up to shufBatchRows tagged join output rows
	MsgShardDone   = byte(0xC4) // exchange complete: worker clock totals
	MsgShardErr    = byte(0xC5) // exchange failed at the worker
)

// Phase bytes inside RouteBatch/ShardEOF frames.
const (
	ShufPhaseBuild = byte('b')
	ShufPhaseProbe = byte('p')
)

// shufBatchRows is how many routed rows accumulate before a frame seals:
// a frame size chosen so per-frame overhead (header, syscall, credit)
// amortizes over the rows it carries.
const shufBatchRows = 256

// shufCreditWindow is the in-flight route-batch window a worker grants at
// Accept: the sender may have this many unacknowledged frames outstanding
// before it must block. Bounded in-flight is the backpressure mechanism —
// a slow shard throttles its producers instead of ballooning its inbox.
const shufCreditWindow = 32

// shufModelFloats is the number of cost-model unit charges a hello carries
// (every CostModel field, in declaration order), so a worker charges the
// exact model the coordinator runs even if defaults ever diverge.
const shufModelFloats = 9

// ShardHelloMsg opens one join's exchange with a worker: which shard of
// how many it is to be, the join geometry its ShardJoiner needs, and the
// cost model its clock must charge under.
type ShardHelloMsg struct {
	Version   uint16
	JoinID    uint64
	Shard     uint16 // this worker's shard index ∈ [0, Shards)
	Shards    uint16 // exchange width n
	LeftOuter bool
	RWidth    uint16
	LeftKeys  []uint16
	RightKeys []uint16
	Model     storage.CostModel
}

func (m ShardHelloMsg) encodeTo(w *wireWriter) {
	w.u16(m.Version)
	w.u64(m.JoinID)
	w.u16(m.Shard)
	w.u16(m.Shards)
	if m.LeftOuter {
		w.byte(1)
	} else {
		w.byte(0)
	}
	w.u16(m.RWidth)
	w.u16(uint16(len(m.LeftKeys)))
	for _, k := range m.LeftKeys {
		w.u16(k)
	}
	w.u16(uint16(len(m.RightKeys)))
	for _, k := range m.RightKeys {
		w.u16(k)
	}
	w.f64(m.Model.SeqPageRead)
	w.f64(m.Model.RandPageRead)
	w.f64(m.Model.PageWrite)
	w.f64(m.Model.RowCPU)
	w.f64(m.Model.HashProbe)
	w.f64(m.Model.Compare)
	w.f64(m.Model.FilterTest)
	w.f64(m.Model.ZoneCheck)
	w.f64(m.Model.NetRow)
}

// DecodeShardHello parses a MsgShardHello payload. A shard index outside
// [0, Shards) is structurally malformed — the bad-shard-id case the fuzzer
// seeds — because no valid exchange can ever produce it.
func DecodeShardHello(p []byte) (ShardHelloMsg, error) {
	r := &wireReader{buf: p}
	m := ShardHelloMsg{Version: r.u16(), JoinID: r.u64(), Shard: r.u16(), Shards: r.u16()}
	switch r.byte() {
	case 0:
	case 1:
		m.LeftOuter = true
	default:
		r.fail()
	}
	m.RWidth = r.u16()
	m.LeftKeys = readKeyList(r)
	m.RightKeys = readKeyList(r)
	m.Model.SeqPageRead = r.f64()
	m.Model.RandPageRead = r.f64()
	m.Model.PageWrite = r.f64()
	m.Model.RowCPU = r.f64()
	m.Model.HashProbe = r.f64()
	m.Model.Compare = r.f64()
	m.Model.FilterTest = r.f64()
	m.Model.ZoneCheck = r.f64()
	m.Model.NetRow = r.f64()
	if err := r.done(); err != nil {
		return m, err
	}
	if m.Shards == 0 || m.Shard >= m.Shards {
		return m, fmt.Errorf("%w: shard id %d out of range [0,%d)", ErrProto, m.Shard, m.Shards)
	}
	return m, nil
}

// maxWireKeys bounds join-key column lists; no schema is remotely close.
const maxWireKeys = 256

func readKeyList(r *wireReader) []uint16 {
	n := int(r.u16())
	if n == 0 {
		return nil
	}
	if n > maxWireKeys {
		r.fail()
		return nil
	}
	out := make([]uint16, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.u16())
	}
	return out
}

// RouteBatchMsg carries up to shufBatchRows routed rows of one phase for
// one source stream. Build batches hold (Idx, Own, Hash, row); probe
// batches hold (Seq, Main, row). Exactly one of Build/Probe is populated,
// selected by Phase.
type RouteBatchMsg struct {
	JoinID uint64
	Phase  byte   // ShufPhaseBuild or ShufPhaseProbe
	Src    uint16 // probe source shard; 0 for build batches (single router)
	Build  []exec.ShufBuild
	Probe  []exec.ShufProbe
}

func (m RouteBatchMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.byte(m.Phase)
	w.u16(m.Src)
	if m.Phase == ShufPhaseBuild {
		w.u16(uint16(len(m.Build)))
		for _, b := range m.Build {
			w.u32(uint32(b.Idx))
			if b.Own {
				w.byte(1)
			} else {
				w.byte(0)
			}
			w.u64(b.Hash)
			appendValues(w, b.Row)
		}
		return
	}
	w.u16(uint16(len(m.Probe)))
	for _, p := range m.Probe {
		w.u64(uint64(p.Seq))
		if p.Main {
			w.byte(1)
		} else {
			w.byte(0)
		}
		appendValues(w, p.Row)
	}
}

// DecodeRouteBatch parses a MsgRouteBatch payload.
func DecodeRouteBatch(p []byte) (RouteBatchMsg, error) {
	r := &wireReader{buf: p}
	var a exec.RowArena // holds the batch's rows
	m := RouteBatchMsg{JoinID: r.u64(), Phase: r.byte(), Src: r.u16()}
	switch m.Phase {
	case ShufPhaseBuild:
		n := int(r.u16())
		if n > shufBatchRows {
			r.fail()
			break
		}
		m.Build = make([]exec.ShufBuild, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			b := exec.ShufBuild{Idx: int32(r.u32())}
			switch r.byte() {
			case 0:
			case 1:
				b.Own = true
			default:
				r.fail()
			}
			b.Hash = r.u64()
			b.Row = readValues(r, &a)
			m.Build = append(m.Build, b)
		}
	case ShufPhaseProbe:
		n := int(r.u16())
		if n > shufBatchRows {
			r.fail()
			break
		}
		m.Probe = make([]exec.ShufProbe, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			pr := exec.ShufProbe{Seq: int64(r.u64())}
			switch r.byte() {
			case 0:
			case 1:
				pr.Main = true
			default:
				r.fail()
			}
			pr.Row = readValues(r, &a)
			m.Probe = append(m.Probe, pr)
		}
	default:
		if r.err == nil {
			r.err = fmt.Errorf("%w: unknown route-batch phase 0x%02x", ErrProto, m.Phase)
		}
	}
	return m, r.done()
}

// ShardEOFMsg ends the build phase (Phase 'b', Src ignored) or one source's
// probe stream (Phase 'p'). A worker that has seen the build EOF plus a
// probe EOF from every source probes and replies.
type ShardEOFMsg struct {
	JoinID uint64
	Phase  byte
	Src    uint16
}

func (m ShardEOFMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.byte(m.Phase)
	w.u16(m.Src)
}

// DecodeShardEOF parses a MsgShardEOF payload.
func DecodeShardEOF(p []byte) (ShardEOFMsg, error) {
	r := &wireReader{buf: p}
	m := ShardEOFMsg{JoinID: r.u64(), Phase: r.byte(), Src: r.u16()}
	if err := r.done(); err != nil {
		return m, err
	}
	if m.Phase != ShufPhaseBuild && m.Phase != ShufPhaseProbe {
		return m, fmt.Errorf("%w: unknown eof phase 0x%02x", ErrProto, m.Phase)
	}
	return m, nil
}

// ShardAcceptMsg acknowledges a hello: the worker admitted the exchange and
// grants the sender its initial credit window (route batches that may be in
// flight unacknowledged).
type ShardAcceptMsg struct {
	JoinID uint64
	Credit uint16
}

func (m ShardAcceptMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.u16(m.Credit)
}

// DecodeShardAccept parses a MsgShardAccept payload.
func DecodeShardAccept(p []byte) (ShardAcceptMsg, error) {
	r := &wireReader{buf: p}
	m := ShardAcceptMsg{JoinID: r.u64(), Credit: r.u16()}
	return m, r.done()
}

// ShardAckMsg returns Credit consumed-and-processed route batches to the
// sender's window. Workers ack every half window so the pipeline never
// drains just because acknowledgements are batched.
type ShardAckMsg struct {
	JoinID uint64
	Credit uint16
}

func (m ShardAckMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.u16(m.Credit)
}

// DecodeShardAck parses a MsgShardAck payload.
func DecodeShardAck(p []byte) (ShardAckMsg, error) {
	r := &wireReader{buf: p}
	m := ShardAckMsg{JoinID: r.u64(), Credit: r.u16()}
	return m, r.done()
}

// OutBatchMsg streams up to shufBatchRows tagged join outputs back to the
// coordinator, in the worker's (source, sequence) probe order — already
// sorted by (Seq, BIdx), which the gather merge depends on.
type OutBatchMsg struct {
	JoinID uint64
	Rows   []exec.ShufOut
}

func (m OutBatchMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.u16(uint16(len(m.Rows)))
	for _, o := range m.Rows {
		w.u64(uint64(o.Seq))
		w.u32(uint32(o.BIdx))
		appendValues(w, o.Row)
	}
}

// DecodeOutBatch parses a MsgOutBatch payload.
func DecodeOutBatch(p []byte) (OutBatchMsg, error) {
	r := &wireReader{buf: p}
	var a exec.RowArena // holds the batch's rows
	m := OutBatchMsg{JoinID: r.u64()}
	n := int(r.u16())
	if n > shufBatchRows {
		r.fail()
		return m, r.done()
	}
	m.Rows = make([]exec.ShufOut, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		o := exec.ShufOut{Seq: int64(r.u64()), BIdx: int32(r.u32())}
		o.Row = readValues(r, &a)
		m.Rows = append(m.Rows, o)
	}
	return m, r.done()
}

// ShardDoneMsg completes a worker's side of the exchange: how many output
// rows it streamed (an integrity check against what arrived) and its
// clock's totals in the ClockScale integer domain, which the coordinator
// folds into the main clock via MergeScaled — the cross-process half of
// the serial cost-parity invariant.
type ShardDoneMsg struct {
	JoinID      uint64
	OutRows     uint32
	UnitsScaled int64
	SeqReads    int64
	RandReads   int64
	PageWrites  int64
	RowsCPU     int64
}

func (m ShardDoneMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.u32(m.OutRows)
	w.u64(uint64(m.UnitsScaled))
	w.u64(uint64(m.SeqReads))
	w.u64(uint64(m.RandReads))
	w.u64(uint64(m.PageWrites))
	w.u64(uint64(m.RowsCPU))
}

// DecodeShardDone parses a MsgShardDone payload.
func DecodeShardDone(p []byte) (ShardDoneMsg, error) {
	r := &wireReader{buf: p}
	m := ShardDoneMsg{
		JoinID:      r.u64(),
		OutRows:     r.u32(),
		UnitsScaled: int64(r.u64()),
		SeqReads:    int64(r.u64()),
		RandReads:   int64(r.u64()),
		PageWrites:  int64(r.u64()),
		RowsCPU:     int64(r.u64()),
	}
	return m, r.done()
}

// ShardErrMsg reports an exchange failure at the worker. The coordinator
// fails the whole query (mid-exchange there is no safe fallback) and the
// session layer surfaces it as ERR_EXEC.
type ShardErrMsg struct {
	JoinID  uint64
	Code    string
	Message string
}

func (m ShardErrMsg) encodeTo(w *wireWriter) {
	w.u64(m.JoinID)
	w.str(m.Code)
	w.str(m.Message)
}

// DecodeShardErr parses a MsgShardErr payload.
func DecodeShardErr(p []byte) (ShardErrMsg, error) {
	r := &wireReader{buf: p}
	m := ShardErrMsg{JoinID: r.u64(), Code: r.str(), Message: r.str()}
	return m, r.done()
}
