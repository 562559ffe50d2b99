package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"rqp/internal/core"
	"rqp/internal/types"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// ShardSweepPoint is one rung of the sharded-execution robustness map: the
// shard-join workload executed on N logical shards under one exchange
// configuration. TotalUnits is the main-clock cost — integer-identical to
// the serial run by the signature invariant — while MakespanUnits is what a
// real cluster's response time would be: the serial prefix (coordinator
// work) plus the slowest shard's local+shuffle-overhead units, divided by
// that shard's worker share in straggler mode.
type ShardSweepPoint struct {
	Section       string  `json:"section" gate:"key"` // uniform | broadcast | skew | straggler | colocated
	Shards        int     `json:"shards" gate:"key"`
	Skew          float64 `json:"skew" gate:"key"`              // Zipf s of the workload keys (0 = uniform)
	HotSplit      bool    `json:"hot_split" gate:"key"`         // skew handling active
	Mode          string  `json:"mode" gate:"key"`              // exchange the join actually ran: repartition | broadcast | colocated | serial
	Workers       string  `json:"workers,omitempty" gate:"key"` // per-shard worker counts in straggler mode ("" = balanced)
	TotalUnits    float64 `json:"total_units" gate:"tol"`       // main-clock cost (== serial)
	MakespanUnits float64 `json:"makespan_units" gate:"tol"`    // derived cluster response time
	WorstShard    float64 `json:"worst_shard_units"`            // slowest shard's local+overhead units
	MeanShard     float64 `json:"mean_shard_units"`             // mean shard local+overhead units
	RowsMoved     int64   `json:"rows_moved"`
	RowsBroadcast int64   `json:"rows_broadcast"`
	HotKeys       int64   `json:"hot_keys"`
	ResultExact   bool    `json:"result_exact" gate:"never"` // rows byte-identical to the serial run
	CostExact     bool    `json:"cost_exact" gate:"never"`   // TotalUnits exactly equals the serial cost
}

// shardWorkers parses a straggler worker vector like "1,2,2,2"; nil means
// one worker per shard.
func shardWorkers(spec string, shards int) []float64 {
	if spec == "" {
		return nil
	}
	parts := strings.Split(spec, ",")
	w := make([]float64, shards)
	for i := 0; i < shards; i++ {
		w[i] = 1
		if i < len(parts) {
			if v, err := strconv.ParseFloat(parts[i], 64); err == nil && v > 0 {
				w[i] = v
			}
		}
	}
	return w
}

// shardMakespan derives the cluster response time from a sharded result:
// serial prefix (total minus the shard-local share) plus the slowest
// shard's local+overhead units over its worker count. Returns makespan,
// worst and mean shard units. A result with no shuffle snapshot is fully
// serial: makespan == total.
func shardMakespan(res *core.Result, workers []float64) (makespan, worst, mean float64) {
	if res.Shuffle == nil || len(res.Shuffle.ShardUnits) == 0 {
		return res.Cost, res.Cost, res.Cost
	}
	s := res.Shuffle
	local := 0.0
	for _, u := range s.ShardUnits {
		local += u
	}
	prefix := res.Cost - local
	var sum float64
	for i := range s.ShardUnits {
		u := s.ShardUnits[i] + s.ShardExtra[i]
		sum += u
		t := u
		if workers != nil && workers[i] > 0 {
			t = u / workers[i]
		}
		if u > worst {
			worst = u
		}
		if prefix+t > makespan {
			makespan = prefix + t
		}
	}
	mean = sum / float64(len(s.ShardUnits))
	return makespan, worst, mean
}

// shardSweepRun executes the shard-join query once under the given engine
// configuration and folds the run into a point.
func shardSweepRun(section string, wcfg workload.ShardJoinConfig, shards int, force string,
	noHotSplit bool, workerSpec string, colocate bool) (ShardSweepPoint, error) {
	p := ShardSweepPoint{
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
		return cfg
	}
	serial, err := core.Attach(cat, mk(0)).Exec(q)
	if err != nil {
		return p, fmt.Errorf("E28 %s serial: %w", section, err)
	}
	res, err := core.Attach(cat, mk(shards)).Exec(q)
	if err != nil {
		return p, fmt.Errorf("E28 %s shards=%d: %w", section, shards, err)
	}

	p.TotalUnits = res.Cost
	p.ResultExact = equalCanon(canonRows([][]types.Row{serial.Rows}), canonRows([][]types.Row{res.Rows}))
	p.CostExact = res.Cost == serial.Cost
	p.MakespanUnits, p.WorstShard, p.MeanShard = shardMakespan(res, shardWorkers(workerSpec, shards))
	if s := res.Shuffle; s != nil {
		p.RowsMoved, p.RowsBroadcast, p.HotKeys = s.RowsMoved, s.RowsBroadcast, s.HotKeys
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

// ShardSweep runs the E28 skew/straggler sweep and returns the report plus
// the raw points (for rqpbench -sweep shard-sweep and the regression
// gate). skewOverride > 0 replaces the skew ladder with a single value.
func ShardSweep(scale, skewOverride float64) (*Report, []ShardSweepPoint, error) {
	base := workload.DefaultShardJoin()
	base.BuildRows = scaleInt(base.BuildRows, scale)
	base.ProbeRows = scaleInt(base.ProbeRows, scale)
	base.Keys = int64(scaleInt(int(base.Keys), scale))

	var points []ShardSweepPoint
	add := func(p ShardSweepPoint, err error) error {
		if err != nil {
			return err
		}
		points = append(points, p)
		return nil
	}

	// Uniform keys, forced repartition: the graceful-scaling curve the
	// makespan must follow as shards grow.
	for _, shards := range []int{1, 2, 4, 8} {
		if err := add(shardSweepRun("uniform", base, shards, "repartition", false, "", false)); err != nil {
			return nil, nil, err
		}
	}

	// Small build side at 4 shards: the costed planner should pick
	// broadcast, and it should beat forced repartition on makespan.
	small := base
	small.BuildRows = max(20, base.BuildRows/50)
	if err := add(shardSweepRun("broadcast", small, 4, "", false, "", false)); err != nil {
		return nil, nil, err
	}
	if err := add(shardSweepRun("broadcast", small, 4, "repartition", false, "", false)); err != nil {
		return nil, nil, err
	}

	// Zipf-skewed keys, hot-split on vs off: the skew-robustness claim is
	// that splitting keeps the worst shard near the mean (no cliff).
	skews := []float64{1.1, 1.3, 1.5}
	if skewOverride > 0 {
		skews = []float64{skewOverride}
	}
	for _, skew := range skews {
		sk := base
		sk.Skew = skew
		for _, noSplit := range []bool{false, true} {
			if err := add(shardSweepRun("skew", sk, 4, "repartition", noSplit, "", false)); err != nil {
				return nil, nil, err
			}
		}
	}

	// Straggler: one shard has half the workers of the others; the
	// makespan degrades by a bounded factor, not a cliff.
	if err := add(shardSweepRun("straggler", base, 4, "repartition", false, "1,2,2,2", false)); err != nil {
		return nil, nil, err
	}

	// Co-located: both tables pre-partitioned on the join key — no rows
	// move at all.
	for _, shards := range []int{2, 4} {
		if err := add(shardSweepRun("colocated", base, shards, "", false, "", true)); err != nil {
			return nil, nil, err
		}
	}

	r := newReport("E28", "shard/skew/straggler sweep (shuffle exchange robustness)")
	r.Printf("%10s %6s %5s %5s %12s %6s %12s %12s %10s %10s %9s %6s %6s",
		"section", "shards", "skew", "split", "mode", "wrk", "total", "makespan", "worst", "mean", "moved", "exact", "cost=")
	var uni1, uni4 float64
	var bcastAuto, bcastRepart ShardSweepPoint
	allExact := true
	skewRatioSplit, skewRatioNoSplit := 0.0, 0.0
	var stragglerMS, balancedMS float64
	colocatedMoved := int64(0)
	for _, p := range points {
		r.Printf("%10s %6d %5.2f %5v %12s %6s %12.1f %12.1f %10.1f %10.1f %9d %6v %6v",
			p.Section, p.Shards, p.Skew, p.HotSplit, p.Mode, p.Workers,
			p.TotalUnits, p.MakespanUnits, p.WorstShard, p.MeanShard, p.RowsMoved,
			p.ResultExact, p.CostExact)
		if !p.ResultExact || !p.CostExact {
			allExact = false
		}
		switch p.Section {
		case "uniform":
			if p.Shards == 1 {
				uni1 = p.MakespanUnits
			}
			if p.Shards == 4 {
				uni4 = p.MakespanUnits
				balancedMS = p.MakespanUnits
			}
		case "broadcast":
			if p.Mode == "broadcast" {
				bcastAuto = p
			} else {
				bcastRepart = p
			}
		case "skew":
			if p.MeanShard > 0 {
				ratio := p.WorstShard / p.MeanShard
				if p.HotSplit && ratio > skewRatioSplit {
					skewRatioSplit = ratio
				}
				if !p.HotSplit && ratio > skewRatioNoSplit {
					skewRatioNoSplit = ratio
				}
			}
		case "straggler":
			stragglerMS = p.MakespanUnits
		case "colocated":
			colocatedMoved += p.RowsMoved + p.RowsBroadcast
		}
	}
	r.Set("points", float64(len(points)))
	setReportBool(r, "all_exact", allExact)
	if uni4 > 0 {
		r.Set("uniform_speedup_4", uni1/uni4)
	}
	setReportBool(r, "broadcast_chosen", bcastAuto.Mode == "broadcast")
	setReportBool(r, "broadcast_wins", bcastAuto.Mode == "broadcast" &&
		bcastAuto.MakespanUnits < bcastRepart.MakespanUnits)
	r.Set("skew_worst_over_mean_split", skewRatioSplit)
	r.Set("skew_worst_over_mean_nosplit", skewRatioNoSplit)
	if balancedMS > 0 {
		r.Set("straggler_slowdown", stragglerMS/balancedMS)
	}
	r.Set("colocated_rows_moved", float64(colocatedMoved))

	// Tie the earlier robustness harnesses to the sharded layer: the E8
	// tractor-pulling join chain must stay byte- and cost-exact when its
	// joins run through shuffle exchanges, ...
	tractorExact, err := shardTractorTieIn(scale)
	if err != nil {
		return nil, nil, err
	}
	setReportBool(r, "tractor_exact", tractorExact)
	// ... and the E11 FPT envelope must still hold when the simulated
	// job's cost is the sharded makespan instead of the serial total.
	fptInEnv := shardFPTTieIn(uni4, r)
	setReportBool(r, "fpt_in_envelope", fptInEnv)

	return r, points, nil
}

// shardTractorTieIn reruns a slice of the E8 tractor-pulling chain with
// sharded execution and reports whether rows and cost stay exact.
func shardTractorTieIn(scale float64) (bool, error) {
	rows := scaleInt(1500, scale)
	cat, err := buildChain(4, rows)
	if err != nil {
		return false, err
	}
	for lv := 1; lv <= 3; lv++ {
		q := chainQuery(lv, 0)
		serial, err := core.Attach(cat, core.DefaultConfig()).Exec(q)
		if err != nil {
			return false, err
		}
		cfg := core.DefaultConfig()
		cfg.Shards = 4
		sharded, err := core.Attach(cat, cfg).Exec(q)
		if err != nil {
			return false, err
		}
		if sharded.Cost != serial.Cost ||
			!equalCanon(canonRows([][]types.Row{serial.Rows}), canonRows([][]types.Row{sharded.Rows})) {
			return false, nil
		}
	}
	return true, nil
}

// shardFPTTieIn re-runs the E11 fluctuating-parallelism check with the
// sharded makespan as the job cost: interference from a second job must
// keep the response inside the [UBL, LBL] envelope.
func shardFPTTieIn(cost float64, r *Report) bool {
	if cost <= 0 {
		return false
	}
	const procs = 4
	ubl := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: cost, MaxDOP: procs},
	}, procs, 0)[0].Response
	lbl := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: cost, MaxDOP: 1},
	}, procs, 0)[0].Response
	worst := ubl
	for _, qmDOP := range []int{2, 4} {
		cs := wlm.SimulateProcessorSharing([]wlm.Job{
			{ID: "qi", Cost: cost, MaxDOP: procs},
			{ID: "qm", Cost: cost, MaxDOP: qmDOP, Arrival: ubl / 4},
		}, procs, 0)
		for _, c := range cs {
			if c.ID == "qi" && c.Response > worst {
				worst = c.Response
			}
		}
	}
	r.Printf("FPT on sharded makespan: UBL=%.1f LBL=%.1f worst=%.1f", ubl, lbl, worst)
	return worst >= ubl-1e-9 && worst <= lbl+1e-9
}

// E28ShardSweep is the registry wrapper.
func E28ShardSweep(scale float64) (*Report, error) {
	r, _, err := ShardSweep(scale, 0)
	return r, err
}
