package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"rqp/internal/exec"
	"rqp/internal/obs"
	"rqp/internal/plan"
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

// shardWorkers parses a straggler worker vector like "1,2,2,2", one count a
// shard; "" (nil) means one worker per shard.
func shardWorkers(spec string) (w []float64) {
	for _, f := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' }) {
		v, _ := strconv.ParseFloat(f, 64)
		w = append(w, v)
	}
	return w
}

// shardMakespan derives the cluster response time from a sharded run:
// serial prefix (total minus the shard-local share) plus the slowest
// shard's local+overhead units over its worker count. Returns makespan,
// worst and mean shard units. A run with no shard units is fully serial:
// makespan == total.
func shardMakespan(total float64, s obs.ShuffleRecord, workers []float64) (makespan, worst, mean float64) {
	if len(s.ShardUnits) == 0 {
		return total, total, total
	}
	local := 0.0
	for _, u := range s.ShardUnits {
		local += u
	}
	prefix := total - local
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

// shardCell is one cell of the shard matrix: the shard-join workload and
// the exchange configuration it runs under.
type shardCell struct {
	section    string
	wcfg       workload.ShardJoinConfig
	shards     int
	force      plan.ShuffleMode
	noHotSplit bool
	workers    string // straggler worker vector, "" when balanced
	colocate   bool   // both tables pre-partitioned on the join key
}

// shardMatrix is the shard matrix E28 runs in process and E30 over worker
// processes. skewOverride > 0 replaces the skew ladder with a single value.
func shardMatrix(scale, skewOverride float64) []shardCell {
	base := workload.DefaultShardJoin()
	base.BuildRows = scaleInt(base.BuildRows, scale)
	base.ProbeRows = scaleInt(base.ProbeRows, scale)
	base.Keys = int64(scaleInt(int(base.Keys), scale))
	// Uniform keys, forced repartition: the graceful-scaling curve the
	// makespan must follow as shards grow.
	var cells []shardCell
	for _, shards := range []int{1, 2, 4, 8} {
		cells = append(cells, shardCell{"uniform", base, shards, plan.ShuffleRepartition, false, "", false})
	}
	// Small build side at 4 shards: the costed planner should pick
	// broadcast, and it should beat forced repartition on makespan.
	small := base
	small.BuildRows = max(20, base.BuildRows/50)
	cells = append(cells, shardCell{"broadcast", small, 4, plan.ShuffleNone, false, "", false},
		shardCell{"broadcast", small, 4, plan.ShuffleRepartition, false, "", false})
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
			cells = append(cells, shardCell{"skew", sk, 4, plan.ShuffleRepartition, noSplit, "", false})
		}
	}
	// Straggler: one shard has half the workers of the others; the
	// makespan degrades by a bounded factor, not a cliff.
	cells = append(cells, shardCell{"straggler", base, 4, plan.ShuffleRepartition, false, "1,2,2,2", false})
	// Co-located: both tables pre-partitioned on the join key — no rows
	// move at all.
	for _, shards := range []int{2, 4} {
		cells = append(cells, shardCell{"colocated", base, shards, plan.ShuffleNone, false, "", true})
	}
	return cells
}

// shardRun executes the shard-join query of one cell serially and on its
// shards, their exchanges carried by transport (nil: in process), and folds
// the two runs into a point plus the sharded run's shuffle statistics.
func shardRun(c shardCell, transport exec.ShuffleTransport, floatCanon *int) (ShardSweepPoint, obs.ShuffleRecord, error) {
	p := ShardSweepPoint{
		Section: c.section, Shards: c.shards, Skew: c.wcfg.Skew,
		HotSplit: !c.noHotSplit, Workers: c.workers, Mode: "serial",
	}
	var s obs.ShuffleRecord
	cat, err := workload.BuildShardJoin(c.wcfg)
	if err != nil {
		return p, s, err
	}
	if c.colocate {
		if err := workload.PartitionShardJoin(cat, c.shards); err != nil {
			return p, s, err
		}
	}
	q := sqls(workload.ShardJoinQuery())
	k := defaults()
	k.MemBudgetRows = 1 << 16 // core.DefaultConfig's workspace
	serial, err := execute(cat, k, q...)
	if err != nil {
		return p, s, fmt.Errorf("%s serial: %w", c.section, err)
	}
	k.Shards, k.ShuffleForce, k.ShardNoHotSplit, k.ShuffleTransport = c.shards, c.force, c.noHotSplit, transport
	res, err := execute(cat, k, q...)
	if err != nil {
		return p, s, fmt.Errorf("%s shards=%d: %w", c.section, c.shards, err)
	}
	if res.rec.Shuffle != nil {
		s = *res.rec.Shuffle
	}
	p.TotalUnits = res.cost()
	p.ResultExact = same(floatCanon, serial, res)
	p.CostExact = res.units == serial.units
	p.MakespanUnits, p.WorstShard, p.MeanShard = shardMakespan(res.cost(), s, shardWorkers(c.workers))
	p.RowsMoved, p.RowsBroadcast, p.HotKeys = s.RowsMoved, s.RowsBroadcast, s.HotKeys
	switch {
	case s.ColocatedJoins > 0:
		p.Mode = "colocated"
	case s.BroadcastJoins > 0:
		p.Mode = "broadcast"
	case s.RepartitionJoins > 0:
		p.Mode = "repartition"
	}
	return p, s, nil
}

// ShardSweep runs the E28 skew/straggler sweep and returns the report plus
// the raw points (for rqpbench -sweep shard-sweep and the regression
// gate). skewOverride > 0 replaces the skew ladder with a single value.
func ShardSweep(scale, skewOverride float64) (*Report, []ShardSweepPoint, error) {
	floatCanon := 0
	var points []ShardSweepPoint
	for _, c := range shardMatrix(scale, skewOverride) {
		p, _, err := shardRun(c, nil, &floatCanon)
		if err != nil {
			return nil, nil, fmt.Errorf("E28 %w", err)
		}
		points = append(points, p)
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
		allExact = allExact && p.ResultExact && p.CostExact
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
	tractorExact, err := shardTractorTieIn(scale, &floatCanon)
	if err != nil {
		return nil, nil, err
	}
	setReportBool(r, "tractor_exact", tractorExact)
	// ... and the E11 FPT envelope must still hold when the simulated
	// job's cost is the sharded makespan instead of the serial total.
	fptInEnv := shardFPTTieIn(uni4, r)
	setReportBool(r, "fpt_in_envelope", fptInEnv)
	r.Set("float_canon_cells", float64(floatCanon))

	return r, points, nil
}

// shardTractorTieIn reruns a slice of the E8 tractor-pulling chain with
// sharded execution and reports whether rows and cost stay exact.
func shardTractorTieIn(scale float64, floatCanon *int) (bool, error) {
	cat, err := buildChain(4, scaleInt(1500, scale))
	if err != nil {
		return false, err
	}
	k := defaults()
	k.MemBudgetRows = 1 << 16 // core.DefaultConfig's workspace
	for lv := 1; lv <= 3; lv++ {
		q := sqls(chainQuery(lv, 0))
		serial, err := execute(cat, k, q...)
		if err != nil {
			return false, err
		}
		sk := k
		sk.Shards = 4
		sharded, err := execute(cat, sk, q...)
		if err != nil {
			return false, err
		}
		if sharded.units != serial.units || !same(floatCanon, serial, sharded) {
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
	ubl, lbl, resp := fpt(cost, 4, []int{2, 4})
	worst := math.Max(ubl, math.Max(resp[0], resp[1]))
	r.Printf("FPT on sharded makespan: UBL=%.1f LBL=%.1f worst=%.1f", ubl, lbl, worst)
	return worst >= ubl-1e-9 && worst <= lbl+1e-9
}
