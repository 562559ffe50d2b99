package exec

import (
	"errors"

	"rqp/internal/expr"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// This file defines the shuffle-transport seam: the one interface behind
// which a sharded join's exchange partners live, whether they are goroutines
// in this process (the transport=local fast path, newLocalExchange) or
// rqpserver -shard-worker processes reached over TCP (the server package's
// NetShuffleTransport). The shardedHashJoin routes rows through a
// ShuffleExchange without knowing which side of a socket the receiving
// shard is on; the transport swap must be invisible to results (byte-
// identical rows via the same (Seq, BIdx) gather merge) and to the main
// clock (the identical multiset of charges, performed wherever the shard
// lives and merged back in the ClockScale integer domain).

// ShufBuild is one routed build row. Idx is its global build-arrival index
// (the gather merge's tiebreak); Own marks the copy whose hash-table insert
// pays the serial charge; Hash is the join-key hash, computed once at the
// coordinator so replicas agree.
type ShufBuild struct {
	Idx  int32
	Own  bool
	Hash uint64
	Row  types.Row
}

// ShufProbe is one routed probe row. Seq is its global serial-order tag;
// Main marks the one copy (of a possibly hot-split-duplicated row) that
// pays the serial probe charge.
type ShufProbe struct {
	Seq  int64
	Main bool
	Row  types.Row
}

// ShufOut is one tagged join output row: lexicographic (Seq, BIdx) order is
// exactly the serial hash join's emission order.
type ShufOut struct {
	Seq  int64
	BIdx int32
	Row  types.Row
}

// ShardUnits is the clock work a shard performed somewhere other than the
// coordinator's scan clocks — zero for the local exchange (which charges
// the coordinator's per-shard clocks directly), a worker process's shipped
// clock counters for the TCP transport. All values are in the ClockScale
// integer domain (UnitsScaled) or raw event counts.
type ShardUnits struct {
	UnitsScaled int64
	SeqReads    int64
	RandReads   int64
	PageWrites  int64
	RowsCPU     int64
}

// ShuffleJoinSpec describes one sharded hash join to a transport: the key
// geometry a receiving shard needs to insert and probe, plus the
// coordinator-side hooks (clocks, stats, cancellation) the exchange feeds.
type ShuffleJoinSpec struct {
	// Shards is the exchange width n: destinations and probe sources both
	// number n.
	Shards int
	// LeftKeys/RightKeys are the probe/build join-key column indices.
	LeftKeys, RightKeys []int
	// LeftOuter selects the outer join's null-extension at the probe.
	LeftOuter bool
	// RWidth is the build-side schema width (null-extension padding).
	RWidth int
	// Residual, when non-nil, is the join's residual predicate over l‖r,
	// evaluated under Params on every candidate match after key equality.
	// The shard-exchange protocol carries no expressions: a transport whose
	// shards live in other processes refuses a join with a residual
	// (ErrExchangeUnsupported), and the join falls back to transport=local.
	Residual expr.Expr
	Params   []types.Value
	// Model is the cost model every shard clock must charge under.
	Model storage.CostModel
	// Clocks are the coordinator's per-shard clocks. The local exchange
	// charges build/probe work straight into them; remote transports leave
	// them untouched and return the work as ShardUnits from Collect.
	Clocks []*storage.Clock
	// Stats receives wire-level accounting (frames, bytes, rows carried,
	// backpressure stalls) as the exchange runs. Nil-safe.
	Stats *ShuffleStats
	// Canceled is the query's cooperative cancellation hook — the same
	// atomic flag a client disconnect flips. Transports poll it so a dead
	// session tears down its shuffle peers through the one cancellation
	// path the session layer already owns. Nil means never canceled.
	Canceled func() bool
}

// ShuffleExchange is one sharded join's routing session. SendBuild is
// called from the (single) build-routing goroutine; SendProbe concurrently
// from n scan goroutines, but any (src, dst) pair only ever from goroutine
// src — per-stream order is what keeps worker-side probe order, and hence
// the gather merge, deterministic. Collect finishes the exchange and
// returns each shard's output stream, already sorted by (Seq, BIdx).
type ShuffleExchange interface {
	SendBuild(dst int, b ShufBuild) error
	// FlushBuild ends the build phase; after it returns, every shard's
	// hash table is (or is being) built from exactly the rows sent.
	FlushBuild() error
	SendProbe(src, dst int, p ShufProbe) error
	// FlushProbe ends source src's probe stream.
	FlushProbe(src int) error
	// Collect ends the probe phase everywhere, gathers each shard's tagged
	// outputs, and reports the clock work shards performed away from the
	// coordinator's clocks (zero for the local exchange).
	Collect() ([][]ShufOut, []ShardUnits, error)
	// Abort tears the exchange down early (error paths); safe after Collect.
	Abort()
}

// ShuffleTransport hands out exchanges. The zero transport is the local
// one; the server package provides the TCP implementation that dials
// rqpserver -shard-worker peers.
type ShuffleTransport interface {
	// Name labels the transport in traces and bench output ("local", "tcp").
	Name() string
	// OpenExchange starts one join's exchange. ErrExchangeUnsupported means
	// this transport cannot run this particular join (e.g. one with a
	// residual, which its protocol cannot carry) and the caller should fall
	// back to the local exchange — a per-join decision, not a transport
	// failure.
	OpenExchange(spec ShuffleJoinSpec) (ShuffleExchange, error)
}

// ErrExchangeUnsupported reports a join shape the transport cannot ship;
// the sharded join falls back to the in-process exchange.
var ErrExchangeUnsupported = errors.New("exec: exchange unsupported by transport")

// ErrShufflePeerLost reports a shuffle peer that died mid-exchange. Unlike
// an OpenExchange refusal there is no safe fallback: rows are already in
// flight, so the query fails (the session layer surfaces ERR_EXEC).
var ErrShufflePeerLost = errors.New("exec: shuffle peer lost")

// ShardJoiner is the receiving half of a shuffle exchange for one shard:
// the hash-table build and serial-order probe engine both the local
// exchange and the server package's worker processes run. Charges mirror
// the serial hash join exactly — Probes(2) per owned insert, Probes(1) per
// main probe copy, and a match or outer row accepted and charged through a
// joinRow, the step every join takes — on whatever clock the shard lives on.
type ShardJoiner struct {
	Spec ShuffleJoinSpec
	Clk  *storage.Clock

	tab   *joinTable
	idx   []int32 // build-arrival index of the table's i'th row
	pk    []types.Value
	cand  types.Row // a matching build row, boxed
	out   joinRow   // l‖r: shards ship both sides, the coordinator cuts Cols
	arena RowArena  // holds the tagged output rows
}

// NewShardJoiner returns a joiner charging the given clock.
func NewShardJoiner(spec ShuffleJoinSpec, clk *storage.Clock) *ShardJoiner {
	return &ShardJoiner{
		Spec: spec,
		Clk:  clk,
		tab:  &joinTable{},
		pk:   make([]types.Value, len(spec.LeftKeys)),
		out:  joinRow{residual: spec.Residual, rw: spec.RWidth},
	}
}

// Insert adds one routed build row. Rows must arrive in ascending Idx order
// per stream (the coordinator routes them that way), so hash chains keep
// build-arrival order and candidate iteration reproduces the serial chain.
func (w *ShardJoiner) Insert(b ShufBuild) {
	if b.Own {
		w.Clk.Probes(2)
	}
	w.tab.add(b.Row, b.Hash)
	w.idx = append(w.idx, b.Idx)
}

// ProbeSources probes the routed rows each source sent this shard, source
// by source in stream order — the order that keeps out sorted by (Seq, BIdx)
// for the coordinator's gather merge — calling after, when non-nil, once a
// probe row's outputs are in. A source's rows are let go once probed.
func (w *ShardJoiner) ProbeSources(srcs [][]ShufProbe, out *[]ShufOut, after func() error) error {
	for s, ps := range srcs {
		for _, p := range ps {
			if err := w.probe(p, out); err != nil {
				return err
			}
			if after != nil {
				if err := after(); err != nil {
					return err
				}
			}
		}
		srcs[s] = nil
	}
	return nil
}

// probe probes one routed row, appending tagged outputs (copied into the
// joiner's arena) to out. The charge placement is the serial join's: one
// probe per Main copy, and the main copy pads a LEFT OUTER row nothing
// matched.
func (w *ShardJoiner) probe(p ShufProbe, out *[]ShufOut) error {
	if p.Main {
		w.Clk.Probes(1)
	}
	keyInto(w.pk, p.Row, w.Spec.LeftKeys)
	matched := false
	if !keyHasNull(w.pk) {
		h := types.HashRow(w.pk)
		for i := w.tab.first(h); i >= 0; i = w.tab.after(i, h) {
			if !w.tab.rows.match(w.pk, int(i), w.Spec.RightKeys, &w.cand) {
				continue
			}
			r, ok, err := w.out.match(w.Clk, w.Spec.Params, p.Row, w.cand)
			if err != nil {
				return err
			}
			if ok {
				matched = true
				*out = append(*out, ShufOut{Seq: p.Seq, BIdx: w.idx[i], Row: w.arena.Copy(r)})
			}
		}
	}
	if w.Spec.LeftOuter && !matched && p.Main {
		*out = append(*out, ShufOut{Seq: p.Seq, BIdx: -1, Row: w.arena.Copy(w.out.outer(w.Clk, p.Row))})
	}
	return nil
}

// localExchange is the transport=local fast path: the exact in-process
// goroutine exchange sharded execution has always run, now behind the
// ShuffleExchange interface. Rows route through in-memory slices, the
// build/probe phases run on runShards goroutines charging the
// coordinator's per-shard clocks, and Collect returns zero ShardUnits
// because no work happened anywhere else.
type localExchange struct {
	spec   ShuffleJoinSpec
	bparts [][]ShufBuild
	routes [][][]ShufProbe // [dst][src]
}

// newLocalExchange builds the in-process exchange for a spec.
func newLocalExchange(spec ShuffleJoinSpec) *localExchange {
	n := spec.Shards
	ex := &localExchange{spec: spec, bparts: make([][]ShufBuild, n), routes: make([][][]ShufProbe, n)}
	for s := range ex.routes {
		ex.routes[s] = make([][]ShufProbe, n)
	}
	return ex
}

func (ex *localExchange) SendBuild(dst int, b ShufBuild) error {
	ex.bparts[dst] = append(ex.bparts[dst], b)
	return nil
}

func (ex *localExchange) FlushBuild() error { return nil }

func (ex *localExchange) SendProbe(src, dst int, p ShufProbe) error {
	ex.routes[dst][src] = append(ex.routes[dst][src], p)
	return nil
}

func (ex *localExchange) FlushProbe(int) error { return nil }

// Collect runs the shard-local build and probe phases on one goroutine per
// shard: insert routed build rows in arrival order, then probe the routed
// rows source by source.
func (ex *localExchange) Collect() ([][]ShufOut, []ShardUnits, error) {
	n := ex.spec.Shards
	outs := make([][]ShufOut, n)
	err := runShards(n, func(s int) error {
		w := NewShardJoiner(ex.spec, ex.spec.Clocks[s])
		for _, b := range ex.bparts[s] {
			w.Insert(b)
		}
		return w.ProbeSources(ex.routes[s], &outs[s], nil)
	})
	if err != nil {
		return nil, nil, err
	}
	return outs, make([]ShardUnits, n), nil
}

func (ex *localExchange) Abort() {}
