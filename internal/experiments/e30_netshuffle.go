package experiments

import (
	"fmt"

	"rqp/internal/server"
)

// NetShuffleSweepPoint is one rung of the network-shuffle robustness map:
// the E28 shard-join matrix executed with every exchange carried over real
// TCP connections to spawned worker processes. The main-clock fields
// (TotalUnits, MakespanUnits) must match the in-process run exactly — the
// transport is invisible to the cost domain — while the Net* fields expose
// the third, wire-accounting domain: frames, bytes and routed rows, which
// must reconcile (every routed row carried by a frame that hit a socket).
type NetShuffleSweepPoint struct {
	Section       string  `json:"section" gate:"key"` // uniform | broadcast | skew | straggler | colocated
	Shards        int     `json:"shards" gate:"key"`
	Skew          float64 `json:"skew" gate:"key"`                  // Zipf s of the workload keys (0 = uniform)
	HotSplit      bool    `json:"hot_split" gate:"key"`             // skew handling active
	Mode          string  `json:"mode" gate:"key"`                  // exchange the join actually ran
	Workers       string  `json:"workers,omitempty" gate:"key"`     // per-shard worker counts in straggler mode
	Transport     string  `json:"transport,omitempty" gate:"equal"` // transport the exchange actually used: tcp | local | ""
	TotalUnits    float64 `json:"total_units" gate:"tol"`           // main-clock cost (== serial, transport-invariant)
	MakespanUnits float64 `json:"makespan_units" gate:"tol"`        // derived cluster response time
	WorstShard    float64 `json:"-"`
	MeanShard     float64 `json:"-"`
	RowsMoved     int64   `json:"rows_moved"`
	RowsBroadcast int64   `json:"rows_broadcast"`
	HotKeys       int64   `json:"hot_keys"`
	NetFrames     int64   `json:"net_frames" gate:"tol"`      // frames put on sockets (deterministic: fixed batch seal points)
	NetBytes      int64   `json:"net_bytes" gate:"tol,never"` // payload+header bytes on sockets (deterministic encoding)
	NetRowsWire   int64   `json:"net_rows_wire" gate:"tol"`   // rows carried by those frames
	NetStalls     int64   `json:"net_stalls"`                 // credit-window stalls (timing-dependent; informational only)
	PeerFrames    []int64 `json:"peer_frames,omitempty"`
	PeerBytes     []int64 `json:"peer_bytes,omitempty"`
	Reconciled    bool    `json:"reconciled" gate:"never"`   // routed-row count == framed-row count
	ResultExact   bool    `json:"result_exact" gate:"never"` // rows byte-identical to the serial run
	CostExact     bool    `json:"cost_exact" gate:"never"`   // TotalUnits exactly equals the serial cost
}

// NetShuffleSweep runs the E30 network-shuffle sweep: the E28 matrix with a
// fleet of real worker processes behind the TCP shuffle transport, where
// co-located joins must carry zero frames and zero bytes. It returns the
// report plus the raw points (for rqpbench -sweep netshuffle-sweep and the
// regression gate). skewOverride > 0 replaces the skew ladder with a single
// value.
func NetShuffleSweep(scale, skewOverride float64) (*Report, []NetShuffleSweepPoint, error) {
	procs, err := server.SpawnShardWorkers(8, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("E30 spawn workers: %w", err)
	}
	defer procs.Stop()

	floatCanon := 0
	var points []NetShuffleSweepPoint
	for _, c := range shardMatrix(scale, skewOverride) {
		sp, s, err := shardRun(c, server.NewNetShuffleTransport(procs.Addrs), &floatCanon)
		if err != nil {
			return nil, nil, fmt.Errorf("E30 %w", err)
		}
		points = append(points, NetShuffleSweepPoint{
			Section: sp.Section, Shards: sp.Shards, Skew: sp.Skew, HotSplit: sp.HotSplit, Mode: sp.Mode,
			Workers: sp.Workers, Transport: s.Transport, TotalUnits: sp.TotalUnits, MakespanUnits: sp.MakespanUnits,
			WorstShard: sp.WorstShard, MeanShard: sp.MeanShard,
			RowsMoved: sp.RowsMoved, RowsBroadcast: sp.RowsBroadcast, HotKeys: sp.HotKeys,
			NetFrames: s.NetFrames, NetBytes: s.NetBytes, NetRowsWire: s.NetRowsWire, NetStalls: s.NetStalls,
			PeerFrames: s.PeerFrames, PeerBytes: s.PeerBytes,
			Reconciled: s.Reconciled(), ResultExact: sp.ResultExact, CostExact: sp.CostExact,
		})
	}

	r := newReport("E30", "network shuffle sweep (E28 matrix over worker processes)")
	r.Printf("%10s %6s %5s %5s %12s %9s %12s %12s %8s %10s %10s %7s %6s %6s",
		"section", "shards", "skew", "split", "mode", "transport", "total", "makespan",
		"frames", "bytes", "rows/wire", "stalls", "exact", "recon")
	allExact, allReconciled, colocatedClean := true, true, true
	var colocatedBytes, totalStalls int64
	rowsPerFrame := 0.0
	skewRatioSplit, skewRatioNoSplit := 0.0, 0.0
	var skewFramesSplit, skewFramesNoSplit int64
	for _, p := range points {
		r.Printf("%10s %6d %5.2f %5v %12s %9s %12.1f %12.1f %8d %10d %10d %7d %6v %6v",
			p.Section, p.Shards, p.Skew, p.HotSplit, p.Mode, p.Transport,
			p.TotalUnits, p.MakespanUnits, p.NetFrames, p.NetBytes, p.NetRowsWire,
			p.NetStalls, p.ResultExact && p.CostExact, p.Reconciled)
		allExact = allExact && p.ResultExact && p.CostExact
		allReconciled = allReconciled && p.Reconciled
		totalStalls += p.NetStalls
		switch p.Section {
		case "uniform":
			if p.Shards == 4 && p.NetFrames > 0 {
				rowsPerFrame = float64(p.NetRowsWire) / float64(p.NetFrames)
			}
		case "skew":
			if p.MeanShard > 0 {
				ratio := p.WorstShard / p.MeanShard
				if p.HotSplit && ratio > skewRatioSplit {
					skewRatioSplit = ratio
					skewFramesSplit = p.NetFrames
				}
				if !p.HotSplit && ratio > skewRatioNoSplit {
					skewRatioNoSplit = ratio
					skewFramesNoSplit = p.NetFrames
				}
			}
		case "colocated":
			colocatedBytes += p.NetBytes
			if p.NetFrames != 0 || p.NetRowsWire != 0 {
				colocatedClean = false
			}
		}
	}
	r.Set("points", float64(len(points)))
	setReportBool(r, "all_exact", allExact)
	setReportBool(r, "all_reconciled", allReconciled)
	r.Set("rows_per_frame_uniform4", rowsPerFrame)
	setReportBool(r, "frames_amortized_5x", rowsPerFrame >= 5)
	r.Set("skew_worst_over_mean_split", skewRatioSplit)
	r.Set("skew_worst_over_mean_nosplit", skewRatioNoSplit)
	// Splitting a hot key costs frames (duplicated probe routing) ...
	if skewFramesNoSplit > 0 {
		r.Set("skew_frames_split_over_nosplit", float64(skewFramesSplit)/float64(skewFramesNoSplit))
	}
	r.Set("colocated_net_bytes", float64(colocatedBytes))
	setReportBool(r, "colocated_zero_frames", colocatedClean)
	r.Set("net_stalls_total", float64(totalStalls))
	r.Set("float_canon_cells", float64(floatCanon))
	return r, points, nil
}
