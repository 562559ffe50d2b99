package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rqp/internal/exec"
	"rqp/internal/storage"
	"rqp/internal/wlm"
)

// ShardWorkerConfig configures one shard worker process's exchange service.
type ShardWorkerConfig struct {
	// Admit gates concurrent exchanges per worker process (nil = unlimited).
	// Each inbound exchange holds one slot from hello-accept to teardown, so
	// a worker under load queues new exchanges instead of thrashing.
	Admit *wlm.Admitter
	// QueueTimeout bounds how long a new exchange may wait for an admission
	// slot before being refused (default 5s).
	QueueTimeout time.Duration
	// MaxFrame caps inbound frame payloads (default MaxFrame).
	MaxFrame int
}

// ShardWorker is the receiving half of the TCP shuffle: a listener that
// serves one shuffle exchange per connection. For each exchange it builds a
// hash-table shard from routed build batches, buffers routed probe rows per
// source, probes in (source, sequence) order once every stream has ended,
// and streams tagged outputs back — exactly what a local shard goroutine
// does, with the coordinator on the far side of a socket.
//
// It is deliberately engine-less: a worker holds no catalog and evaluates
// no predicates, only the join kernel (exec.ShardJoiner) plus a clock. That
// keeps every charge it makes identical to the local shard's and makes the
// worker reusable under any coordinator.
type ShardWorker struct {
	listener
	cfg ShardWorkerConfig
}

// NewShardWorker returns an unstarted worker.
func NewShardWorker(cfg ShardWorkerConfig) *ShardWorker {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = MaxFrame
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 5 * time.Second
	}
	return &ShardWorker{cfg: cfg}
}

// Listen binds the worker to addr ("127.0.0.1:0" for an ephemeral port).
func (w *ShardWorker) Listen(addr string) error { return w.listen(addr) }

// Addr returns the bound listen address ("" before Listen).
func (w *ShardWorker) Addr() string {
	if a := w.addr(); a != nil {
		return a.String()
	}
	return ""
}

// Serve accepts exchange connections until Close, when it returns nil. Each
// connection is one exchange, served on its own goroutine.
func (w *ShardWorker) Serve() error { return w.serve(w.serveExchange) }

// ServeShardWorker runs a shard worker on addr until ctx is done: it gates
// the worker's exchanges with an admitter of mpl slots (0 = unlimited),
// listens, hands the bound address to announce, and serves. It returns nil
// once stopped. rqpserver -shard-worker and MaybeRunShardWorker both start
// their worker here.
func ServeShardWorker(ctx context.Context, addr string, mpl int, queueTimeout time.Duration, announce func(addr string)) error {
	var admit *wlm.Admitter
	if mpl > 0 {
		admit = wlm.NewAdmitter(mpl)
	}
	w := NewShardWorker(ShardWorkerConfig{Admit: admit, QueueTimeout: queueTimeout})
	if err := w.Listen(addr); err != nil {
		return err
	}
	defer w.Close()
	defer context.AfterFunc(ctx, func() { w.Close() })()
	announce(w.Addr())
	return w.Serve()
}

// Close stops accepting, severs every in-flight exchange, and waits for
// their goroutines. Severing is abrupt by design: a dying worker must look
// to its coordinator exactly like a network failure.
func (w *ShardWorker) Close() error { return w.close() }

// exchangeState is one in-flight exchange at the worker.
type exchangeState struct {
	hello   ShardHelloMsg
	joiner  *exec.ShardJoiner
	clk     *storage.Clock
	probes  [][]exec.ShufProbe // buffered per source, probed in (src, seq) order
	pdone   []bool
	bdone   bool
	unacked int // route batches consumed since the last Ack
}

// serveExchange runs one exchange to completion: handshake, admission,
// stream consumption, probe, reply. Any protocol or execution error is
// reported with a best-effort ShardErr before the connection drops; a
// coordinator abort (its conn close) just ends the read loop — either way
// the deferred admission release fires, so a dead query can never leak a
// worker slot.
func (w *ShardWorker) serveExchange(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)

	fr, err := ReadFrame(br, w.cfg.MaxFrame)
	if err != nil || fr.Type != MsgShardHello {
		return
	}
	hello, err := DecodeShardHello(fr.Payload)
	if err != nil {
		return
	}
	if hello.Version != ProtocolVersion {
		w.sendErr(bw, hello.JoinID, CodeProto, fmt.Sprintf("protocol version %d unsupported", hello.Version))
		return
	}
	if w.cfg.Admit != nil {
		if !w.cfg.Admit.Admit(w.cfg.QueueTimeout, nil, nil).Admitted {
			w.sendErr(bw, hello.JoinID, CodeAdmit, "worker admission queue timeout")
			return
		}
		defer w.cfg.Admit.Done()
	}

	st := &exchangeState{
		hello:  hello,
		clk:    storage.NewClock(hello.Model),
		probes: make([][]exec.ShufProbe, hello.Shards),
		pdone:  make([]bool, hello.Shards),
	}
	st.joiner = exec.NewShardJoiner(exec.ShuffleJoinSpec{
		Shards:    int(hello.Shards),
		LeftKeys:  widenKeys(hello.LeftKeys),
		RightKeys: widenKeys(hello.RightKeys),
		LeftOuter: hello.LeftOuter,
		RWidth:    int(hello.RWidth),
	}, st.clk)

	if err := WriteMsg(bw, MsgShardAccept, ShardAcceptMsg{JoinID: hello.JoinID, Credit: shufCreditWindow}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	for {
		fr, err := ReadFrame(br, w.cfg.MaxFrame)
		if err != nil {
			// Coordinator gone (abort, disconnect, finished-and-closed):
			// nothing to report to, nothing to leak — the deferred admission
			// release and conn close are the whole teardown.
			return
		}
		switch fr.Type {
		case MsgRouteBatch:
			if err := w.consumeBatch(st, fr.Payload); err != nil {
				w.sendErr(bw, hello.JoinID, CodeProto, err.Error())
				return
			}
			// Replenish the sender's window every half window so the
			// pipeline keeps moving while acks are still batched.
			st.unacked++
			if st.unacked >= shufCreditWindow/2 {
				if err := w.ack(bw, st); err != nil {
					return
				}
			}
		case MsgShardEOF:
			eof, err := DecodeShardEOF(fr.Payload)
			if err != nil || eof.JoinID != hello.JoinID {
				w.sendErr(bw, hello.JoinID, CodeProto, "bad eof frame")
				return
			}
			switch eof.Phase {
			case ShufPhaseBuild:
				st.bdone = true
			case ShufPhaseProbe:
				if int(eof.Src) >= len(st.pdone) {
					w.sendErr(bw, hello.JoinID, CodeProto, "eof source out of range")
					return
				}
				st.pdone[eof.Src] = true
			}
			if st.bdone && allDone(st.pdone) {
				if err := w.probeAndReply(bw, st); err != nil {
					w.sendErr(bw, hello.JoinID, CodeExec, err.Error())
				}
				// Linger until the coordinator closes: it may still be
				// draining our output stream.
				io.Copy(io.Discard, br)
				return
			}
		case MsgTerminate:
			return
		default:
			w.sendErr(bw, hello.JoinID, CodeProto, fmt.Sprintf("unexpected frame 0x%02x", fr.Type))
			return
		}
	}
}

// consumeBatch folds one route batch into the exchange state: build rows
// insert immediately (arrival order per stream preserves serial chains),
// probe rows buffer per source for the ordered probe pass.
func (w *ShardWorker) consumeBatch(st *exchangeState, payload []byte) error {
	rb, err := DecodeRouteBatch(payload)
	if err != nil {
		return err
	}
	if rb.JoinID != st.hello.JoinID {
		return fmt.Errorf("route batch for unknown join %d", rb.JoinID)
	}
	switch rb.Phase {
	case ShufPhaseBuild:
		if st.bdone {
			return errors.New("build batch after build eof")
		}
		for _, b := range rb.Build {
			st.joiner.Insert(b)
		}
	case ShufPhaseProbe:
		if int(rb.Src) >= len(st.probes) {
			return fmt.Errorf("probe source %d out of range [0,%d)", rb.Src, len(st.probes))
		}
		if st.pdone[rb.Src] {
			return errors.New("probe batch after source eof")
		}
		st.probes[rb.Src] = append(st.probes[rb.Src], rb.Probe...)
	}
	return nil
}

// ack returns the consumed-batch count to the sender's credit window.
func (w *ShardWorker) ack(bw *bufio.Writer, st *exchangeState) error {
	if err := WriteMsg(bw, MsgShardAck, ShardAckMsg{JoinID: st.hello.JoinID, Credit: uint16(st.unacked)}); err != nil {
		return err
	}
	st.unacked = 0
	return bw.Flush()
}

// probeAndReply runs the shard's probe phase — the joiner probes the
// buffered rows source by source, as the local exchange's shards do —
// streaming outputs in shufBatchRows frames, then reports the clock totals.
func (w *ShardWorker) probeAndReply(bw *bufio.Writer, st *exchangeState) error {
	var out []exec.ShufOut
	var streamed uint32
	flush := func(min int) error {
		for len(out) >= min && len(out) > 0 {
			n := len(out)
			if n > shufBatchRows {
				n = shufBatchRows
			}
			if err := WriteMsg(bw, MsgOutBatch, OutBatchMsg{JoinID: st.hello.JoinID, Rows: out[:n]}); err != nil {
				return err
			}
			streamed += uint32(n)
			out = out[n:]
		}
		return nil
	}
	if err := st.joiner.ProbeSources(st.probes, &out, func() error { return flush(shufBatchRows) }); err != nil {
		return err
	}
	if err := flush(1); err != nil {
		return err
	}
	seq, rand, writes, rows := st.clk.Counters()
	done := ShardDoneMsg{
		JoinID:      st.hello.JoinID,
		OutRows:     streamed,
		UnitsScaled: st.clk.UnitsScaled(),
		SeqReads:    seq,
		RandReads:   rand,
		PageWrites:  writes,
		RowsCPU:     rows,
	}
	if err := WriteMsg(bw, MsgShardDone, done); err != nil {
		return err
	}
	return bw.Flush()
}

// sendErr best-effort reports a failure and flushes; the connection is
// about to drop either way.
func (w *ShardWorker) sendErr(bw *bufio.Writer, joinID uint64, code, msg string) {
	_ = WriteMsg(bw, MsgShardErr, ShardErrMsg{JoinID: joinID, Code: code, Message: msg})
	_ = bw.Flush()
}

func widenKeys(ks []uint16) []int {
	if len(ks) == 0 {
		return nil
	}
	out := make([]int, len(ks))
	for i, k := range ks {
		out[i] = int(k)
	}
	return out
}

func allDone(fs []bool) bool {
	for _, f := range fs {
		if !f {
			return false
		}
	}
	return true
}
