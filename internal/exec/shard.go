package exec

import (
	"sync"
	"sync/atomic"

	"rqp/internal/obs"
	"rqp/internal/plan"
	"rqp/internal/storage"
)

// Sharded scale-out execution models N logical "nodes" as goroutine-backed
// shards, each running the full local operator stack, with hash-partition
// shuffle exchanges between them (see shardjoin.go). Accounting is split
// into two domains:
//
//   - The main clock: the same multiset of charges the serial plan makes,
//     issued on per-shard child clocks and merged back — so total simulated
//     cost stays integer-exact regardless of shard count, the repo's
//     signature invariant.
//   - The shuffle-overhead domain: NetRow transfer and replica-insert
//     charges that only exist because rows crossed shards. These accumulate
//     per shard in ShuffleStats and never touch the main clock.
//
// A per-shard makespan (what a real cluster's response time would be) is
// then derived by the bench layer as the serial prefix plus the slowest
// shard's main+overhead units.

// shardSkewFactor flags a shard whose routed build-row share exceeds this
// multiple of the mean — the per-shard row counters' skew trigger. Keys
// whose build rows alone exceed the mean shard load are then split.
const shardSkewFactor = 2.0

// shardSeqShift packs (morsel, row-within-morsel) into one monotone
// sequence tag for the sharded join's (Seq, BIdx) merge; no morsel or column
// block holds 2^20 rows.
const shardSeqShift = 20

// shardEligible reports whether build routes a join through the sharded
// shuffle layer: the context carries shards and the planner annotated the
// join (opt.PlanShuffles marks every hash join when sharding is on).
func (ctx *Context) shardEligible(j *plan.JoinNode) bool {
	return ctx.Shards > 1 && j.Alg == plan.JoinHash && j.Shuffle != plan.ShuffleNone
}

// shardStartHook, when non-nil, runs in every shard goroutine before it
// starts work — a test seam that staggers or randomizes shard start order
// to shake out ordering assumptions under -race.
var shardStartHook func(shard int)

// SetShardStartHook installs (or, with nil, clears) the shard-start test
// seam. Tests only; not safe to change while queries run.
func SetShardStartHook(fn func(shard int)) { shardStartHook = fn }

// runShards runs fn(0..n-1) on one goroutine per shard and returns the
// first error by shard index. The shards ARE the scale-out parallelism;
// within a shard, work runs sequentially on that shard's clock.
func runShards(n int, fn func(s int) error) error {
	hook := shardStartHook
	if n == 1 {
		if hook != nil {
			hook(0)
		}
		return fn(0)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if hook != nil {
				hook(s)
			}
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ShuffleStats aggregates shuffle-exchange activity across a query's
// sharded joins. All methods are nil-safe and atomic: shard goroutines, the
// coordinator, and transport sender goroutines update it concurrently.
//
// The net* counters are the wire-accounting domain a network transport
// feeds: frames and bytes actually written to sockets, rows carried inside
// those frames, and backpressure stalls. They exist so the NetRow
// side-domain charges (shardExtra) can be reconciled against what was
// really sent instead of assumed — netRowsWire must equal netRowsRouted
// (every row handed to the transport arrived inside a frame), and the
// local transport leaves all of them zero.
type ShuffleStats struct {
	shards        int
	rowsMoved     int64 // probe/build rows that crossed shards (repartition)
	rowsBroadcast int64 // build-row replicas shipped (broadcast)
	hotKeys       int64 // build keys split across shards by skew handling
	hotProbeDups  int64 // probe-row duplicates routed for split keys
	degrades      int64 // joins that bypassed the shuffle under memory pressure
	colocated     int64 // joins run with no row movement
	repartition   int64
	broadcast     int64
	shardUnits    []int64 // main-clock units attributed per shard (ClockScale domain)
	shardExtra    []int64 // shuffle-overhead units per shard (ClockScale domain)

	transport     atomic.Value // string: exchange transport that actually ran ("", "local", "tcp")
	netFrames     int64        // route/out-batch frames written to sockets
	netBytes      int64        // frame bytes written (headers + payload)
	netRowsRouted int64        // rows handed to a network exchange for shipping
	netRowsWire   int64        // rows carried inside frames actually sent
	netStalls     int64        // sender blocks on an exhausted credit window
	netFallbacks  int64        // exchanges refused by the transport, run locally
	peerFrames    []int64      // per-destination-shard frame counts
	peerBytes     []int64      // per-destination-shard frame bytes
	peerStalls    []int64      // per-destination-shard backpressure stalls
}

// NewShuffleStats returns stats for a query running on n shards.
func NewShuffleStats(n int) *ShuffleStats {
	return &ShuffleStats{
		shards: n, shardUnits: make([]int64, n), shardExtra: make([]int64, n),
		peerFrames: make([]int64, n), peerBytes: make([]int64, n), peerStalls: make([]int64, n),
	}
}

func (s *ShuffleStats) movedRows(n int64) {
	if s != nil {
		atomic.AddInt64(&s.rowsMoved, n)
	}
}

func (s *ShuffleStats) broadcastRows(n int64) {
	if s != nil {
		atomic.AddInt64(&s.rowsBroadcast, n)
	}
}

func (s *ShuffleStats) hotSplit(keys int64) {
	if s != nil {
		atomic.AddInt64(&s.hotKeys, keys)
	}
}

func (s *ShuffleStats) hotDup(n int64) {
	if s != nil {
		atomic.AddInt64(&s.hotProbeDups, n)
	}
}

func (s *ShuffleStats) degraded() {
	if s != nil {
		atomic.AddInt64(&s.degrades, 1)
	}
}

func (s *ShuffleStats) countJoin(mode plan.ShuffleMode) {
	if s == nil {
		return
	}
	switch mode {
	case plan.ShuffleColocated:
		atomic.AddInt64(&s.colocated, 1)
	case plan.ShuffleBroadcast:
		atomic.AddInt64(&s.broadcast, 1)
	default:
		atomic.AddInt64(&s.repartition, 1)
	}
}

// addExtra charges n repetitions of unit into shard's shuffle-overhead
// domain, with the same float-to-integer truncation identity the main
// clock's batch charges use.
func (s *ShuffleStats) addExtra(shard, n int, unit float64) {
	if s == nil || n == 0 || shard >= len(s.shardExtra) {
		return
	}
	atomic.AddInt64(&s.shardExtra[shard], int64(n)*int64(unit*storage.ClockScale))
}

// addUnits attributes scaled main-clock units to a shard (called once per
// join phase with the shard clock's accumulated total).
func (s *ShuffleStats) addUnits(shard int, scaled int64) {
	if s == nil || shard >= len(s.shardUnits) {
		return
	}
	atomic.AddInt64(&s.shardUnits[shard], scaled)
}

// SetTransport records which exchange transport ran this query's shuffles.
func (s *ShuffleStats) SetTransport(name string) {
	if s != nil {
		s.transport.Store(name)
	}
}

// AddNetFrame records one frame written to peer's socket: its on-the-wire
// size (header + payload) and the routed rows it carried. Called by
// transport sender goroutines.
func (s *ShuffleStats) AddNetFrame(peer, bytes, rows int) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.netFrames, 1)
	atomic.AddInt64(&s.netBytes, int64(bytes))
	atomic.AddInt64(&s.netRowsWire, int64(rows))
	if peer >= 0 && peer < len(s.peerFrames) {
		atomic.AddInt64(&s.peerFrames[peer], 1)
		atomic.AddInt64(&s.peerBytes[peer], int64(bytes))
	}
}

// AddNetRouted counts rows handed to a network exchange for shipping — the
// send-site half of the frames-vs-routing reconciliation.
func (s *ShuffleStats) AddNetRouted(n int64) {
	if s != nil {
		atomic.AddInt64(&s.netRowsRouted, n)
	}
}

// AddNetStall records a sender goroutine blocking on an exhausted credit
// window for peer — the backpressure signal that a slow shard is throttling
// producers instead of ballooning memory.
func (s *ShuffleStats) AddNetStall(peer int) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.netStalls, 1)
	if peer >= 0 && peer < len(s.peerStalls) {
		atomic.AddInt64(&s.peerStalls[peer], 1)
	}
}

// netFallback counts an exchange the transport refused (e.g. residual
// closure), run on the local exchange instead.
func (s *ShuffleStats) netFallback() {
	if s != nil {
		atomic.AddInt64(&s.netFallbacks, 1)
	}
}

// record copies the stats into a statement's record.
func (s *ShuffleStats) record() *obs.ShuffleRecord {
	snap := &obs.ShuffleRecord{
		Shards:           s.shards,
		RowsMoved:        atomic.LoadInt64(&s.rowsMoved),
		RowsBroadcast:    atomic.LoadInt64(&s.rowsBroadcast),
		HotKeys:          atomic.LoadInt64(&s.hotKeys),
		HotProbeDups:     atomic.LoadInt64(&s.hotProbeDups),
		Degrades:         atomic.LoadInt64(&s.degrades),
		ColocatedJoins:   atomic.LoadInt64(&s.colocated),
		RepartitionJoins: atomic.LoadInt64(&s.repartition),
		BroadcastJoins:   atomic.LoadInt64(&s.broadcast),
		ShardUnits:       make([]float64, len(s.shardUnits)),
		ShardExtra:       make([]float64, len(s.shardExtra)),
	}
	for i := range s.shardUnits {
		snap.ShardUnits[i] = float64(atomic.LoadInt64(&s.shardUnits[i])) / storage.ClockScale
		snap.ShardExtra[i] = float64(atomic.LoadInt64(&s.shardExtra[i])) / storage.ClockScale
	}
	if name, ok := s.transport.Load().(string); ok {
		snap.Transport = name
	}
	snap.NetFrames = atomic.LoadInt64(&s.netFrames)
	snap.NetBytes = atomic.LoadInt64(&s.netBytes)
	snap.NetRowsRouted = atomic.LoadInt64(&s.netRowsRouted)
	snap.NetRowsWire = atomic.LoadInt64(&s.netRowsWire)
	snap.NetStalls = atomic.LoadInt64(&s.netStalls)
	snap.NetFallbacks = atomic.LoadInt64(&s.netFallbacks)
	if snap.NetFrames > 0 {
		snap.PeerFrames = make([]int64, len(s.peerFrames))
		snap.PeerBytes = make([]int64, len(s.peerBytes))
		snap.PeerStalls = make([]int64, len(s.peerStalls))
		for i := range s.peerFrames {
			snap.PeerFrames[i] = atomic.LoadInt64(&s.peerFrames[i])
			snap.PeerBytes[i] = atomic.LoadInt64(&s.peerBytes[i])
			snap.PeerStalls[i] = atomic.LoadInt64(&s.peerStalls[i])
		}
	}
	return snap
}
