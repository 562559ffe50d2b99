package experiments

import (
	"fmt"

	"rqp/internal/core"
	"rqp/internal/server"
	"rqp/internal/types"
	"rqp/internal/workload"
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

// netShuffleRun executes the shard-join query once with the TCP transport
// against a live worker fleet and folds the run into a point.
func netShuffleRun(addrs []string, section string, wcfg workload.ShardJoinConfig, shards int,
	force string, noHotSplit bool, workerSpec string, colocate bool) (NetShuffleSweepPoint, error) {
	p := NetShuffleSweepPoint{
		Section: section, Shards: shards, Skew: wcfg.Skew,
		HotSplit: !noHotSplit, Workers: workerSpec, Mode: "serial",
	}
	cat, err := workload.BuildShardJoin(wcfg)
	if err != nil {
		return p, err
	}
	if colocate {
		if err := workload.PartitionShardJoin(cat, shards); err != nil {
			return p, err
		}
	}
	q := workload.ShardJoinQuery()

	mk := func(shards int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Shards = shards
		cfg.ShuffleForce = force
		cfg.ShardNoHotSplit = noHotSplit
		if shards > 1 {
			cfg.ShuffleTransport = server.NewNetShuffleTransport(addrs)
		}
		return cfg
	}
	serial, err := core.Attach(cat, mk(0)).Exec(q)
	if err != nil {
		return p, fmt.Errorf("E30 %s serial: %w", section, err)
	}
	res, err := core.Attach(cat, mk(shards)).Exec(q)
	if err != nil {
		return p, fmt.Errorf("E30 %s shards=%d: %w", section, shards, err)
	}

	p.TotalUnits = res.Cost
	p.ResultExact = equalCanon(canonRows([][]types.Row{serial.Rows}), canonRows([][]types.Row{res.Rows}))
	p.CostExact = res.Cost == serial.Cost
	p.MakespanUnits, p.WorstShard, p.MeanShard = shardMakespan(res, shardWorkers(workerSpec, shards))
	p.Reconciled = true
	if s := res.Shuffle; s != nil {
		p.RowsMoved, p.RowsBroadcast, p.HotKeys = s.RowsMoved, s.RowsBroadcast, s.HotKeys
		p.Transport = s.Transport
		p.NetFrames, p.NetBytes, p.NetRowsWire, p.NetStalls =
			s.NetFrames, s.NetBytes, s.NetRowsWire, s.NetStalls
		p.PeerFrames = append([]int64(nil), s.PeerFrames...)
		p.PeerBytes = append([]int64(nil), s.PeerBytes...)
		p.Reconciled = s.Reconciled()
		switch {
		case s.ColocatedJoins > 0:
			p.Mode = "colocated"
		case s.BroadcastJoins > 0:
			p.Mode = "broadcast"
		case s.RepartitionJoins > 0:
			p.Mode = "repartition"
		}
	}
	return p, nil
}

// NetShuffleSweep runs the E30 network-shuffle sweep: the E28 matrix with a
// fleet of real worker processes behind the TCP shuffle transport. It
// returns the report plus the raw points (for rqpbench -sweep
// netshuffle-sweep and the regression gate). skewOverride > 0 replaces the
// skew ladder with a single value.
func NetShuffleSweep(scale, skewOverride float64) (*Report, []NetShuffleSweepPoint, error) {
	procs, err := server.SpawnShardWorkers(8, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("E30 spawn workers: %w", err)
	}
	defer procs.Stop()

	base := workload.DefaultShardJoin()
	base.BuildRows = scaleInt(base.BuildRows, scale)
	base.ProbeRows = scaleInt(base.ProbeRows, scale)
	base.Keys = int64(scaleInt(int(base.Keys), scale))

	var points []NetShuffleSweepPoint
	add := func(p NetShuffleSweepPoint, err error) error {
		if err != nil {
			return err
		}
		points = append(points, p)
		return nil
	}
	run := func(section string, wcfg workload.ShardJoinConfig, shards int, force string,
		noHotSplit bool, workerSpec string, colocate bool) error {
		return add(netShuffleRun(procs.Addrs, section, wcfg, shards, force, noHotSplit, workerSpec, colocate))
	}

	// Uniform keys, forced repartition: every build and probe row crosses a
	// process boundary; the makespan curve must match the in-process sweep.
	for _, shards := range []int{1, 2, 4, 8} {
		if err := run("uniform", base, shards, "repartition", false, "", false); err != nil {
			return nil, nil, err
		}
	}

	// Small build side: the planner picks broadcast; replicas cross the wire
	// but the (much larger) probe side stays put.
	small := base
	small.BuildRows = max(20, base.BuildRows/50)
	if err := run("broadcast", small, 4, "", false, "", false); err != nil {
		return nil, nil, err
	}
	if err := run("broadcast", small, 4, "repartition", false, "", false); err != nil {
		return nil, nil, err
	}

	// Zipf-skewed keys, hot-split on vs off: splitting duplicates hot probe
	// rows onto extra sockets — the wire pays a little so no worker drowns.
	skews := []float64{1.1, 1.3, 1.5}
	if skewOverride > 0 {
		skews = []float64{skewOverride}
	}
	for _, skew := range skews {
		sk := base
		sk.Skew = skew
		for _, noSplit := range []bool{false, true} {
			if err := run("skew", sk, 4, "repartition", noSplit, "", false); err != nil {
				return nil, nil, err
			}
		}
	}

	// Straggler: worker-share imbalance only reshapes the makespan; bytes on
	// the wire are identical to the balanced run.
	if err := run("straggler", base, 4, "repartition", false, "1,2,2,2", false); err != nil {
		return nil, nil, err
	}

	// Co-located: shards own their data — the configured transport must
	// carry zero frames and zero bytes.
	for _, shards := range []int{2, 4} {
		if err := run("colocated", base, shards, "", false, "", true); err != nil {
			return nil, nil, err
		}
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
		if !p.ResultExact || !p.CostExact {
			allExact = false
		}
		if !p.Reconciled {
			allReconciled = false
		}
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
	return r, points, nil
}

// E30NetShuffle is the registry wrapper.
func E30NetShuffle(scale float64) (*Report, error) {
	r, _, err := NetShuffleSweep(scale, 0)
	return r, err
}
