package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rqp/internal/exec"
)

// NetShuffleTransport runs sharded joins' exchanges over TCP against
// rqpserver -shard-worker peers: transport=tcp behind exec's one
// ShuffleTransport interface. Each OpenExchange dials one connection per
// shard, and rows flow as batched route frames pushed by per-peer sender
// goroutines under credit-based backpressure — a slow worker exhausts its
// window and throttles the producers that feed it instead of ballooning
// anyone's memory.
type NetShuffleTransport struct {
	peers    []string
	dialTO   time.Duration
	nextJoin uint64
}

// NewNetShuffleTransport returns a transport shuffling through the given
// worker addresses. An exchange of n shards uses peers[0:n], so the list
// bounds the maximum shard count.
func NewNetShuffleTransport(peers []string) *NetShuffleTransport {
	return &NetShuffleTransport{peers: peers, dialTO: 5 * time.Second}
}

// Name labels the transport in traces and bench output.
func (t *NetShuffleTransport) Name() string { return "tcp" }

// OpenExchange dials and handshakes one connection per shard. Refusals —
// a residual predicate (an expression the shard hello does not carry and a
// worker could not evaluate), too few peers, or any dial/handshake failure —
// happen before a single row has been routed, so the caller can still
// safely fall back to the local exchange.
func (t *NetShuffleTransport) OpenExchange(spec exec.ShuffleJoinSpec) (exec.ShuffleExchange, error) {
	if spec.Residual != nil {
		return nil, fmt.Errorf("%w: the shard protocol carries no residual predicate", exec.ErrExchangeUnsupported)
	}
	if spec.Shards > len(t.peers) {
		return nil, fmt.Errorf("%w: %d shards but only %d worker peers", exec.ErrExchangeUnsupported, spec.Shards, len(t.peers))
	}
	joinID := atomic.AddUint64(&t.nextJoin, 1)
	hello := ShardHelloMsg{
		Version:   ProtocolVersion,
		JoinID:    joinID,
		Shards:    uint16(spec.Shards),
		LeftOuter: spec.LeftOuter,
		RWidth:    uint16(spec.RWidth),
		LeftKeys:  narrowKeys(spec.LeftKeys),
		RightKeys: narrowKeys(spec.RightKeys),
		Model:     spec.Model,
	}

	ex := &netExchange{
		spec:    spec,
		joinID:  joinID,
		peers:   make([]*netPeer, spec.Shards),
		abortCh: make(chan struct{}),
		bacc:    make([][]exec.ShufBuild, spec.Shards),
		pacc:    make([][][]exec.ShufProbe, spec.Shards),
	}
	for s := range ex.pacc {
		ex.pacc[s] = make([][]exec.ShufProbe, spec.Shards)
	}
	for d := 0; d < spec.Shards; d++ {
		p, err := t.dialPeer(t.peers[d], d, hello)
		if err != nil {
			for _, prev := range ex.peers[:d] {
				prev.conn.Close()
			}
			return nil, fmt.Errorf("%w: peer %d (%s): %v", exec.ErrExchangeUnsupported, d, t.peers[d], err)
		}
		ex.peers[d] = p
	}
	ex.start()
	return ex, nil
}

// dialPeer connects and handshakes shard d's worker: hello out, accept (or
// refusal) back, all under the dial timeout.
func (t *NetShuffleTransport) dialPeer(addr string, d int, hello ShardHelloMsg) (*netPeer, error) {
	conn, err := net.DialTimeout("tcp", addr, t.dialTO)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(time.Now().Add(t.dialTO))
	hello.Shard = uint16(d)
	bw := bufio.NewWriterSize(conn, 32<<10)
	br := bufio.NewReaderSize(conn, 32<<10)
	if err := WriteMsg(bw, MsgShardHello, hello); err != nil {
		conn.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	fr, err := ReadFrame(br, MaxFrame)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch fr.Type {
	case MsgShardAccept:
		acc, err := DecodeShardAccept(fr.Payload)
		if err != nil || acc.JoinID != hello.JoinID {
			conn.Close()
			return nil, fmt.Errorf("bad accept frame")
		}
		conn.SetDeadline(time.Time{})
		credit := int(acc.Credit)
		if credit <= 0 {
			credit = 1
		}
		p := &netPeer{
			id:     d,
			conn:   conn,
			br:     br,
			bw:     bw,
			frames: make(chan shufFrame, 2*credit),
			credit: make(chan struct{}, credit),
		}
		for i := 0; i < credit; i++ {
			p.credit <- struct{}{}
		}
		return p, nil
	case MsgShardErr:
		em, derr := DecodeShardErr(fr.Payload)
		conn.Close()
		if derr != nil {
			return nil, derr
		}
		return nil, fmt.Errorf("worker refused: %s: %s", em.Code, em.Message)
	default:
		conn.Close()
		return nil, fmt.Errorf("unexpected handshake frame 0x%02x", fr.Type)
	}
}

func narrowKeys(ks []int) []uint16 {
	if len(ks) == 0 {
		return nil
	}
	out := make([]uint16, len(ks))
	for i, k := range ks {
		out[i] = uint16(k)
	}
	return out
}

// shufFrame is one frame queued for a peer's sender goroutine. Route
// batches consume a credit and carry rows; EOF markers are free.
type shufFrame struct {
	typ  byte
	msg  Encoder
	rows int
}

// netPeer is one worker connection's coordinator-side state.
type netPeer struct {
	id     int
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	frames chan shufFrame
	credit chan struct{} // tokens = route batches the window still allows in flight

	outs []exec.ShufOut // filled by the receiver goroutine only
	done ShardDoneMsg
	got  bool // ShardDone arrived
}

// netExchange is one join's live TCP exchange. Batch accumulators are
// sharded by sender goroutine — bacc per destination (single build
// router), pacc per (source, destination) with only goroutine src touching
// row src — so accumulation is lock-free; the per-peer frames channel is
// the producer/sender handoff.
type netExchange struct {
	spec   exec.ShuffleJoinSpec
	joinID uint64
	peers  []*netPeer

	bacc [][]exec.ShufBuild
	pacc [][][]exec.ShufProbe

	sendWG  sync.WaitGroup
	recvWG  sync.WaitGroup
	stopWG  sync.WaitGroup
	stopCh  chan struct{}
	abortCh chan struct{}
	failErr error
	failMu  sync.Mutex
	aborted sync.Once
}

// start launches the per-peer sender and receiver goroutines plus the
// cancellation watchdog that ties the exchange into the query's one
// cooperative cancel flag — the same flag a client disconnect flips, so
// session teardown and shuffle teardown are a single path.
func (ex *netExchange) start() {
	ex.stopCh = make(chan struct{})
	for _, p := range ex.peers {
		ex.sendWG.Add(1)
		ex.recvWG.Add(1)
		go ex.sender(p)
		go ex.receiver(p)
	}
	if ex.spec.Canceled != nil {
		ex.stopWG.Add(1)
		go func() {
			defer ex.stopWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ex.stopCh:
					return
				case <-tick.C:
					if ex.spec.Canceled() {
						ex.fail(exec.ErrCanceled)
						return
					}
				}
			}
		}()
	}
}

// fail records the first error, wakes every blocked sender, and severs all
// peer connections (unblocking receivers stuck in ReadFrame). Idempotent.
func (ex *netExchange) fail(err error) {
	ex.failMu.Lock()
	if ex.failErr == nil {
		ex.failErr = err
	}
	ex.failMu.Unlock()
	ex.aborted.Do(func() {
		close(ex.abortCh)
		for _, p := range ex.peers {
			p.conn.Close()
		}
	})
}

func (ex *netExchange) err() error {
	ex.failMu.Lock()
	defer ex.failMu.Unlock()
	return ex.failErr
}

// sender drains p.frames onto the socket. A route batch first takes a
// credit token — blocking (and counting a backpressure stall) when the
// worker's window is exhausted — then encodes through a spare buffer
// and writes the frame in one Write. The flush-when-idle pattern keeps
// frames coalesced under load and latency low when the stream goes quiet.
func (ex *netExchange) sender(p *netPeer) {
	defer ex.sendWG.Done()
	st := ex.spec.Stats
	for {
		var f shufFrame
		var ok bool
		select {
		case f, ok = <-p.frames:
		default:
			// Channel momentarily empty: flush what's buffered before
			// blocking so the worker isn't idle while bytes sit here.
			if err := p.bw.Flush(); err != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
				return
			}
			select {
			case f, ok = <-p.frames:
			case <-ex.abortCh:
				return
			}
		}
		if !ok {
			if err := p.bw.Flush(); err != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
			}
			return
		}
		if f.rows > 0 { // route batches are credit-gated; EOFs ride free
			select {
			case <-p.credit:
			default:
				// Window exhausted. Flush first — the ack that will refill
				// the window can only come after the worker has seen the
				// frames still sitting in our write buffer — then block.
				if err := p.bw.Flush(); err != nil {
					ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
					return
				}
				st.AddNetStall(p.id)
				select {
				case <-p.credit:
				case <-ex.abortCh:
					return
				}
			}
		}
		wire, err := writeMsg(p.bw, f.typ, f.msg)
		if err != nil {
			ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
			return
		}
		st.AddNetFrame(p.id, wire, f.rows)
	}
}

// receiver consumes the worker's reply stream: credit acks feed the sender
// window, out batches accumulate for Collect, ShardDone completes the
// peer, ShardErr (or a dead connection) fails the exchange.
func (ex *netExchange) receiver(p *netPeer) {
	defer ex.recvWG.Done()
	for {
		fr, err := ReadFrame(p.br, MaxFrame)
		if err != nil {
			if ex.err() == nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
			}
			return
		}
		switch fr.Type {
		case MsgShardAck:
			ack, err := DecodeShardAck(fr.Payload)
			if err != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
				return
			}
			for i := 0; i < int(ack.Credit); i++ {
				select {
				case p.credit <- struct{}{}:
				default: // worker over-acked; cap at the window
				}
			}
		case MsgOutBatch:
			ob, err := DecodeOutBatch(fr.Payload)
			if err != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
				return
			}
			p.outs = append(p.outs, ob.Rows...)
		case MsgShardDone:
			dn, err := DecodeShardDone(fr.Payload)
			if err != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, err))
				return
			}
			p.done = dn
			p.got = true
			return
		case MsgShardErr:
			em, derr := DecodeShardErr(fr.Payload)
			if derr != nil {
				ex.fail(fmt.Errorf("%w: peer %d: %v", exec.ErrShufflePeerLost, p.id, derr))
			} else {
				ex.fail(fmt.Errorf("%w: peer %d: %s: %s", exec.ErrShufflePeerLost, p.id, em.Code, em.Message))
			}
			return
		default:
			ex.fail(fmt.Errorf("%w: peer %d: unexpected frame 0x%02x", exec.ErrShufflePeerLost, p.id, fr.Type))
			return
		}
	}
}

// enqueue hands a sealed frame to a peer's sender, bailing out if the
// exchange has already failed so producers never deadlock on a dead peer.
func (ex *netExchange) enqueue(dst int, f shufFrame) error {
	select {
	case ex.peers[dst].frames <- f:
		return nil
	case <-ex.abortCh:
		if err := ex.err(); err != nil {
			return err
		}
		return exec.ErrShufflePeerLost
	}
}

// SendBuild accumulates a routed build row for dst, sealing a route-batch
// frame at the 256-row batch shape. Single-goroutine (the build router).
func (ex *netExchange) SendBuild(dst int, b exec.ShufBuild) error {
	ex.spec.Stats.AddNetRouted(1)
	ex.bacc[dst] = append(ex.bacc[dst], b)
	if len(ex.bacc[dst]) >= shufBatchRows {
		return ex.sealBuild(dst)
	}
	return nil
}

func (ex *netExchange) sealBuild(dst int) error {
	rows := ex.bacc[dst]
	ex.bacc[dst] = nil
	return ex.enqueue(dst, shufFrame{
		typ:  MsgRouteBatch,
		msg:  RouteBatchMsg{JoinID: ex.joinID, Phase: ShufPhaseBuild, Build: rows},
		rows: len(rows),
	})
}

// FlushBuild seals every partial build batch and marks the build phase
// complete at every worker.
func (ex *netExchange) FlushBuild() error {
	for d := range ex.peers {
		if len(ex.bacc[d]) > 0 {
			if err := ex.sealBuild(d); err != nil {
				return err
			}
		}
		eof := shufFrame{typ: MsgShardEOF, msg: ShardEOFMsg{JoinID: ex.joinID, Phase: ShufPhaseBuild}}
		if err := ex.enqueue(d, eof); err != nil {
			return err
		}
	}
	return nil
}

// SendProbe accumulates a routed probe row on the (src, dst) stream. Only
// goroutine src touches row src of the accumulator, so sealing needs no
// lock; the frames channel is the concurrency boundary.
func (ex *netExchange) SendProbe(src, dst int, p exec.ShufProbe) error {
	ex.spec.Stats.AddNetRouted(1)
	ex.pacc[src][dst] = append(ex.pacc[src][dst], p)
	if len(ex.pacc[src][dst]) >= shufBatchRows {
		return ex.sealProbe(src, dst)
	}
	return nil
}

func (ex *netExchange) sealProbe(src, dst int) error {
	rows := ex.pacc[src][dst]
	ex.pacc[src][dst] = nil
	return ex.enqueue(dst, shufFrame{
		typ:  MsgRouteBatch,
		msg:  RouteBatchMsg{JoinID: ex.joinID, Phase: ShufPhaseProbe, Src: uint16(src), Probe: rows},
		rows: len(rows),
	})
}

// FlushProbe seals src's partial batches and ends its stream at every
// worker — every worker, because a worker cannot probe until it has heard
// from all sources, including those that routed it nothing.
func (ex *netExchange) FlushProbe(src int) error {
	for d := range ex.peers {
		if len(ex.pacc[src][d]) > 0 {
			if err := ex.sealProbe(src, d); err != nil {
				return err
			}
		}
		eof := shufFrame{typ: MsgShardEOF, msg: ShardEOFMsg{JoinID: ex.joinID, Phase: ShufPhaseProbe, Src: uint16(src)}}
		if err := ex.enqueue(d, eof); err != nil {
			return err
		}
	}
	return nil
}

// Collect closes the outbound streams, waits for every worker's output and
// clock report, and hands back the per-shard (Seq, BIdx)-sorted streams
// plus the remote clock work for MergeScaled.
func (ex *netExchange) Collect() ([][]exec.ShufOut, []exec.ShardUnits, error) {
	for _, p := range ex.peers {
		close(p.frames)
	}
	ex.sendWG.Wait()
	ex.recvWG.Wait()
	if err := ex.err(); err != nil {
		return nil, nil, err
	}
	outs := make([][]exec.ShufOut, len(ex.peers))
	units := make([]exec.ShardUnits, len(ex.peers))
	for i, p := range ex.peers {
		if !p.got {
			return nil, nil, fmt.Errorf("%w: peer %d closed without completing", exec.ErrShufflePeerLost, i)
		}
		if int(p.done.OutRows) != len(p.outs) {
			return nil, nil, fmt.Errorf("%w: peer %d reported %d rows, streamed %d",
				exec.ErrShufflePeerLost, i, p.done.OutRows, len(p.outs))
		}
		outs[i] = p.outs
		units[i] = exec.ShardUnits{
			UnitsScaled: p.done.UnitsScaled,
			SeqReads:    p.done.SeqReads,
			RandReads:   p.done.RandReads,
			PageWrites:  p.done.PageWrites,
			RowsCPU:     p.done.RowsCPU,
		}
	}
	ex.shutdown()
	return outs, units, nil
}

// Abort tears the exchange down early. Safe (and a near-no-op) after a
// successful Collect.
func (ex *netExchange) Abort() {
	ex.aborted.Do(func() {
		close(ex.abortCh)
		for _, p := range ex.peers {
			p.conn.Close()
		}
	})
	ex.shutdown()
}

// shutdown stops the watchdog and closes connections; idempotent.
func (ex *netExchange) shutdown() {
	select {
	case <-ex.stopCh:
	default:
		close(ex.stopCh)
	}
	ex.stopWG.Wait()
	for _, p := range ex.peers {
		p.conn.Close()
	}
}
