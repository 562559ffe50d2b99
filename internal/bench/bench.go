// Package bench defines the machine-readable benchmark format shared by
// cmd/rqpbench (which produces BENCH_*.json) and cmd/rqpregress (which
// gates fresh runs against the committed baselines). Every file is
// self-describing: a Meta header records when, with which toolchain and
// under which engine configuration the numbers were produced, so the
// regression gate can refuse apples-to-oranges comparisons instead of
// silently diffing incomparable runs — the benchmarking discipline OptMark
// (arXiv:1608.02611) argues robustness claims need.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"rqp/internal/core"
	"rqp/internal/experiments"
	"rqp/internal/obs"
	"rqp/internal/workload"
)

// probeObs holds one process-wide metrics registry and query-lifecycle
// registry shared by every probe engine, so a single -debug-addr server
// can watch the whole bench run's queries regardless of which policy
// engine is currently executing.
var probeObs struct {
	once    sync.Once
	metrics *obs.Registry
	queries *obs.QueryRegistry
}

func probeRegistries() (*obs.Registry, *obs.QueryRegistry) {
	probeObs.once.Do(func() {
		probeObs.metrics = obs.NewRegistry()
		probeObs.queries = obs.NewQueryRegistry(256, probeObs.metrics)
	})
	return probeObs.metrics, probeObs.queries
}

// StartProbeDebugServer serves /metrics, /queries, /trace/{id} and pprof
// for the probe workload on addr. Probe engines created afterwards report
// into the served registries.
func StartProbeDebugServer(addr string) (*obs.DebugServer, error) {
	m, q := probeRegistries()
	return obs.StartDebugServer(addr, m, q)
}

// ProbeSeed is the dataset seed for the traced probe workload; it is
// recorded in Meta so two files probe the same data or refuse to compare.
const ProbeSeed = 42

// Meta makes a benchmark file self-describing. Identity fields (Scale,
// DOP, RF, MemBudgetRows, Seed) must match for two files to be
// comparable; provenance fields (Timestamp, GoVersion, OS, Arch) are
// informational.
type Meta struct {
	Kind          string  `json:"kind"` // see KnownKinds for the registry of valid values
	Timestamp     string  `json:"timestamp"`
	GoVersion     string  `json:"go_version"`
	OS            string  `json:"os"`
	Arch          string  `json:"arch"`
	Scale         float64 `json:"scale"`
	DOP           int     `json:"dop"`
	RF            bool    `json:"rf"`
	MemBudgetRows int     `json:"mem_budget_rows"`
	Seed          int64   `json:"seed"`
	// Shards and Skew pin the sharded-execution configuration: a baseline
	// produced at one shard count or key skew must not gate a run at
	// another (the shuffle overhead and makespan are not comparable).
	Shards int     `json:"shards,omitempty"`
	Skew   float64 `json:"skew,omitempty"`
}

// NewMeta stamps a meta header for a run produced right now by this
// binary.
func NewMeta(kind string, scale float64, dop int, rf bool, memRows, shards int, skew float64) Meta {
	return Meta{
		Kind:          kind,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		Scale:         scale,
		DOP:           dop,
		RF:            rf,
		MemBudgetRows: memRows,
		Shards:        shards,
		Skew:          skew,
		Seed:          ProbeSeed,
	}
}

// KnownKinds is the registry of bench-file kinds the regression gate knows
// how to regenerate and diff. A kind must be registered here when its
// section lands, or rqpregress would accept the file and then silently
// compare none of its points — exactly the failure mode the gate exists to
// prevent. Compare refuses files whose kind is not registered.
var KnownKinds = map[string]bool{
	"probes":           true,
	"mem-sweep":        true,
	"filter-sweep":     true,
	"dop-sweep":        true,
	"columnar-sweep":   true,
	"shard-sweep":      true,
	"server-sweep":     true,
	"netshuffle-sweep": true,
	"mixed":            true,
}

// Comparable reports whether two metas describe the same experiment
// configuration; the error names the first mismatched identity field.
func (m Meta) Comparable(other Meta) error {
	switch {
	case m.Kind != other.Kind:
		return fmt.Errorf("kind mismatch: %q vs %q", m.Kind, other.Kind)
	case m.Scale != other.Scale:
		return fmt.Errorf("scale mismatch: %v vs %v", m.Scale, other.Scale)
	case m.DOP != other.DOP:
		return fmt.Errorf("dop mismatch: %d vs %d", m.DOP, other.DOP)
	case m.RF != other.RF:
		return fmt.Errorf("rf mismatch: %v vs %v", m.RF, other.RF)
	case m.MemBudgetRows != other.MemBudgetRows:
		return fmt.Errorf("mem_budget_rows mismatch: %d vs %d", m.MemBudgetRows, other.MemBudgetRows)
	case m.Seed != other.Seed:
		return fmt.Errorf("seed mismatch: %d vs %d", m.Seed, other.Seed)
	case m.Shards != other.Shards:
		return fmt.Errorf("shards mismatch: %d vs %d", m.Shards, other.Shards)
	case m.Skew != other.Skew:
		return fmt.Errorf("skew mismatch: %v vs %v", m.Skew, other.Skew)
	}
	return nil
}

// Experiment is one experiment's machine-readable result.
type Experiment struct {
	ID       string             `json:"id"`
	Title    string             `json:"title"`
	WallMS   float64            `json:"wall_ms"`
	Headline map[string]float64 `json:"headline"`
}

// Query is one traced probe query's result: the per-query numbers the text
// reports only aggregate.
type Query struct {
	ID            int     `json:"id"`
	Policy        string  `json:"policy"`
	Trapped       bool    `json:"trapped"`
	Rows          int     `json:"rows"`
	CostUnits     float64 `json:"cost_units"`
	Reopts        int     `json:"reopts"`
	QErrorGeomean float64 `json:"qerror_geomean"`
	Fingerprint   string  `json:"fingerprint,omitempty"`
}

// MemSweepPoint is one rung of the memory-degradation robustness map.
type MemSweepPoint struct {
	BudgetRows      int     `json:"budget_rows"`
	CostUnits       float64 `json:"cost_units"`
	SpillPartitions int     `json:"spill_partitions"`
	SpillRows       int     `json:"spill_rows"`
	SpillPages      int     `json:"spill_pages"`
	RecursionDepth  int     `json:"recursion_depth"`
	MergeFallbacks  int     `json:"merge_fallbacks"`
	ResultExact     bool    `json:"result_exact"`
}

// FilterSweepPoint is one rung of the runtime-filter robustness map.
type FilterSweepPoint struct {
	Selectivity     float64 `json:"selectivity"`
	UnfilteredUnits float64 `json:"unfiltered_units"`
	FilteredUnits   float64 `json:"filtered_units"`
	Ratio           float64 `json:"ratio"`
	FiltersBuilt    int     `json:"filters_built"`
	RowsTested      int     `json:"rows_tested"`
	RowsDropped     int     `json:"rows_dropped"`
	FiltersDisabled int     `json:"filters_disabled"`
	ResultExact     bool    `json:"result_exact"`
}

// DopSweepPoint is one rung of the parallel cost-parity map.
type DopSweepPoint struct {
	DOP         int     `json:"dop"`
	CostUnits   float64 `json:"cost_units"`
	WallMS      float64 `json:"wall_ms"`
	ResultExact bool    `json:"result_exact"`
}

// ColumnarSweepPoint is one rung of the columnar robustness map: the same
// scan+filter on heap and columnar paths at one encoding x selectivity.
type ColumnarSweepPoint struct {
	Encoding      string  `json:"encoding"`
	Selectivity   float64 `json:"selectivity"`
	HeapUnits     float64 `json:"heap_units"`
	ColUnits      float64 `json:"col_units"`
	Ratio         float64 `json:"ratio"`
	BlocksSkipped int     `json:"blocks_skipped"`
	BlocksScanned int     `json:"blocks_scanned"`
	ResultExact   bool    `json:"result_exact"`
}

// ShardSweepPoint is one rung of the sharded-execution robustness map: the
// shard-join workload at one (section, shards, skew, hot-split, workers)
// configuration. TotalUnits must match the serial cost exactly;
// MakespanUnits is the derived cluster response time the graceful-
// degradation curves are about.
type ShardSweepPoint struct {
	Section       string  `json:"section"`
	Shards        int     `json:"shards"`
	Skew          float64 `json:"skew"`
	HotSplit      bool    `json:"hot_split"`
	Mode          string  `json:"mode"`
	Workers       string  `json:"workers,omitempty"`
	TotalUnits    float64 `json:"total_units"`
	MakespanUnits float64 `json:"makespan_units"`
	WorstShard    float64 `json:"worst_shard_units"`
	MeanShard     float64 `json:"mean_shard_units"`
	RowsMoved     int64   `json:"rows_moved"`
	RowsBroadcast int64   `json:"rows_broadcast"`
	HotKeys       int64   `json:"hot_keys"`
	ResultExact   bool    `json:"result_exact"`
	CostExact     bool    `json:"cost_exact"`
}

// ServerSweepPoint is one rung of the service-layer concurrency map: N
// closed-loop wire-protocol clients against one engine behind an MPL
// admission gate. Latency quantiles and qps are wall-clock (never gated);
// CostUnits is the deterministic simulated total, recorded only at
// clients=1 where execution is sequential, so the gate diffs it exactly
// there and skips it at concurrent points.
type ServerSweepPoint struct {
	Clients       int     `json:"clients"`
	MPL           int     `json:"mpl"`
	Queries       int     `json:"queries"`
	QueuedWaits   int64   `json:"queued_waits"`
	QueuedNotices int     `json:"queued_notices"`
	AdmitTimeouts int     `json:"admit_timeouts"`
	QPS           float64 `json:"qps"`
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	P999MS        float64 `json:"p999_ms"`
	MaxMS         float64 `json:"max_ms"`
	MeanCostUnits float64 `json:"mean_cost_units"`
	CostUnits     float64 `json:"cost_units,omitempty"`
	ResultExact   bool    `json:"result_exact"`
}

// NetShuffleSweepPoint is one rung of the network-shuffle robustness map:
// the E28 shard-join matrix re-run with every exchange carried over TCP to
// spawned worker processes. Main-clock fields and wire totals (frames,
// bytes, rows) are deterministic — fixed batch seal points and a canonical
// encoding — so the gate diffs them; NetStalls is timing-dependent
// (credit-window backpressure) and is recorded but never gated.
type NetShuffleSweepPoint struct {
	Section       string  `json:"section"`
	Shards        int     `json:"shards"`
	Skew          float64 `json:"skew"`
	HotSplit      bool    `json:"hot_split"`
	Mode          string  `json:"mode"`
	Workers       string  `json:"workers,omitempty"`
	Transport     string  `json:"transport,omitempty"`
	TotalUnits    float64 `json:"total_units"`
	MakespanUnits float64 `json:"makespan_units"`
	RowsMoved     int64   `json:"rows_moved"`
	RowsBroadcast int64   `json:"rows_broadcast"`
	HotKeys       int64   `json:"hot_keys"`
	NetFrames     int64   `json:"net_frames"`
	NetBytes      int64   `json:"net_bytes"`
	NetRowsWire   int64   `json:"net_rows_wire"`
	NetStalls     int64   `json:"net_stalls"`
	PeerFrames    []int64 `json:"peer_frames,omitempty"`
	PeerBytes     []int64 `json:"peer_bytes,omitempty"`
	Reconciled    bool    `json:"reconciled"`
	ResultExact   bool    `json:"result_exact"`
	CostExact     bool    `json:"cost_exact"`
}

// Result is one bench file: the meta header plus whichever sections the
// run produced.
type Result struct {
	Meta          Meta                 `json:"meta"`
	Experiments   []Experiment         `json:"experiments,omitempty"`
	Queries       []Query              `json:"queries,omitempty"`
	MemSweep      []MemSweepPoint      `json:"mem_sweep,omitempty"`
	FilterSweep   []FilterSweepPoint   `json:"filter_sweep,omitempty"`
	DopSweep      []DopSweepPoint      `json:"dop_sweep,omitempty"`
	ColumnarSweep []ColumnarSweepPoint `json:"columnar_sweep,omitempty"`
	ShardSweep    []ShardSweepPoint    `json:"shard_sweep,omitempty"`
	ServerSweep   []ServerSweepPoint   `json:"server_sweep,omitempty"`

	NetShuffleSweep []NetShuffleSweepPoint `json:"netshuffle_sweep,omitempty"`
}

// Load reads and decodes a bench file.
func Load(path string) (*Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// ProbeQueries runs a small correlation-trap star workload under each
// execution policy with tracing enabled and reports per-query cost, reopt
// count, q-error geomean and plan fingerprint.
func ProbeQueries(scale float64, dop, shards int) ([]Query, error) {
	sc := workload.DefaultStar()
	sc.FactRows = max(500, int(float64(sc.FactRows)*scale*0.2))
	sc.DimRows = max(200, int(float64(sc.DimRows)*scale*0.2))
	sc.Dim2Rows = max(100, int(float64(sc.Dim2Rows)*scale*0.2))
	queries := workload.StarWorkload(sc, 8, 0.5, ProbeSeed)
	var out []Query
	for _, pol := range []core.ExecPolicy{core.PolicyClassic, core.PolicyPOP, core.PolicyRio} {
		cat, err := workload.BuildStar(sc)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Policy = pol
		cfg.TraceAll = true
		cfg.DOP = dop
		cfg.Shards = shards
		eng := core.Attach(cat, cfg)
		// Report into the shared probe registries so a -debug-addr server
		// sees every policy engine's queries under one roof.
		eng.Metrics, eng.Lifecycle = probeRegistries()
		for i, q := range queries {
			res, err := eng.Exec(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("probe %s q%d: %w", pol, i, err)
			}
			qj := Query{
				ID: i, Policy: pol.String(), Trapped: q.Trapped,
				Rows: len(res.Rows), CostUnits: res.Cost, Reopts: res.Reopts,
			}
			if res.Trace != nil {
				qj.QErrorGeomean = res.Trace.QErrorGeomean()
				qj.Fingerprint = res.Trace.Fingerprint()
			}
			out = append(out, qj)
		}
	}
	return out, nil
}

// RunMemSweep produces the mem_sweep section.
func RunMemSweep(scale float64) ([]MemSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.MemSweep(scale)
	if err != nil {
		return nil, nil, err
	}
	out := make([]MemSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, MemSweepPoint{
			BudgetRows: p.Budget, CostUnits: p.Units,
			SpillPartitions: p.Partitions, SpillRows: p.SpillRows,
			SpillPages: p.SpillPages, RecursionDepth: p.MaxDepth,
			MergeFallbacks: p.Fallbacks, ResultExact: p.Match,
		})
	}
	return out, rep, nil
}

// RunFilterSweep produces the filter_sweep section.
func RunFilterSweep(scale float64) ([]FilterSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.FilterSweep(scale)
	if err != nil {
		return nil, nil, err
	}
	out := make([]FilterSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, FilterSweepPoint{
			Selectivity: p.Sel, UnfilteredUnits: p.Unfiltered,
			FilteredUnits: p.Filtered, Ratio: p.Ratio,
			FiltersBuilt: p.Built, RowsTested: p.Tested,
			RowsDropped: p.Dropped, FiltersDisabled: p.Disabled,
			ResultExact: p.Match,
		})
	}
	return out, rep, nil
}

// RunDopSweep produces the dop_sweep section.
func RunDopSweep(scale float64) ([]DopSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.DopSweep(scale)
	if err != nil {
		return nil, nil, err
	}
	out := make([]DopSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, DopSweepPoint{
			DOP: p.DOP, CostUnits: p.Units, WallMS: p.WallMS, ResultExact: p.Match,
		})
	}
	return out, rep, nil
}

// RunColumnarSweep produces the columnar_sweep section.
func RunColumnarSweep(scale float64) ([]ColumnarSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.ColumnarSweep(scale)
	if err != nil {
		return nil, nil, err
	}
	out := make([]ColumnarSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, ColumnarSweepPoint{
			Encoding: p.Encoding, Selectivity: p.Sel,
			HeapUnits: p.HeapUnits, ColUnits: p.ColUnits, Ratio: p.Ratio,
			BlocksSkipped: p.BlocksSkipped, BlocksScanned: p.BlocksScanned,
			ResultExact: p.Match,
		})
	}
	return out, rep, nil
}

// RunShardSweep produces the shard_sweep section. skew > 0 narrows the
// skew ladder to that single Zipf parameter (and is recorded in Meta so
// the gate refuses cross-skew comparisons).
func RunShardSweep(scale, skew float64) ([]ShardSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.ShardSweep(scale, skew)
	if err != nil {
		return nil, nil, err
	}
	out := make([]ShardSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, ShardSweepPoint{
			Section: p.Section, Shards: p.Shards, Skew: p.Skew,
			HotSplit: p.HotSplit, Mode: p.Mode, Workers: p.Workers,
			TotalUnits: p.TotalUnits, MakespanUnits: p.MakespanUnits,
			WorstShard: p.WorstShard, MeanShard: p.MeanShard,
			RowsMoved: p.RowsMoved, RowsBroadcast: p.RowsBroadcast,
			HotKeys: p.HotKeys, ResultExact: p.ResultExact, CostExact: p.CostExact,
		})
	}
	return out, rep, nil
}

// RunServerSweep produces the server_sweep section: the E29 closed-loop
// concurrency sweep through the wire protocol.
func RunServerSweep(scale float64) ([]ServerSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.ServerSweep(scale)
	if err != nil {
		return nil, nil, err
	}
	out := make([]ServerSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, ServerSweepPoint{
			Clients: p.Clients, MPL: p.MPL, Queries: p.Queries,
			QueuedWaits: p.QueuedWaits, QueuedNotices: p.QueuedNotices,
			AdmitTimeouts: p.AdmitTimeouts, QPS: p.QPS,
			P50MS: p.P50MS, P99MS: p.P99MS, P999MS: p.P999MS, MaxMS: p.MaxMS,
			MeanCostUnits: p.MeanCostUnits, CostUnits: p.CostUnits,
			ResultExact: p.ResultExact,
		})
	}
	return out, rep, nil
}

// RunNetShuffleSweep produces the netshuffle_sweep section: the E30 sweep
// over spawned worker processes. The caller's binary must run
// server.MaybeRunShardWorker() at startup so the re-exec'd copies become
// workers. skew > 0 narrows the skew ladder to that single Zipf parameter.
func RunNetShuffleSweep(scale, skew float64) ([]NetShuffleSweepPoint, *experiments.Report, error) {
	rep, points, err := experiments.NetShuffleSweep(scale, skew)
	if err != nil {
		return nil, nil, err
	}
	out := make([]NetShuffleSweepPoint, 0, len(points))
	for _, p := range points {
		out = append(out, NetShuffleSweepPoint{
			Section: p.Section, Shards: p.Shards, Skew: p.Skew,
			HotSplit: p.HotSplit, Mode: p.Mode, Workers: p.Workers,
			Transport:  p.Transport,
			TotalUnits: p.TotalUnits, MakespanUnits: p.MakespanUnits,
			RowsMoved: p.RowsMoved, RowsBroadcast: p.RowsBroadcast, HotKeys: p.HotKeys,
			NetFrames: p.NetFrames, NetBytes: p.NetBytes, NetRowsWire: p.NetRowsWire,
			NetStalls: p.NetStalls, PeerFrames: p.PeerFrames, PeerBytes: p.PeerBytes,
			Reconciled: p.Reconciled, ResultExact: p.ResultExact, CostExact: p.CostExact,
		})
	}
	return out, rep, nil
}

// SweepKinds lists the sweep kinds RunSweep dispatches, sorted — the
// -sweep flag's registry, derived from KnownKinds so a new section cannot
// land without the dispatcher (and the gate) knowing it.
func SweepKinds() []string {
	var kinds []string
	for k := range KnownKinds {
		if k == "probes" || k == "mixed" {
			continue // not sweeps: produced directly by rqpbench
		}
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// ValidateSweepKinds rejects the first kind RunSweep would not dispatch,
// naming the registry — so callers can fail fast before running anything.
func ValidateSweepKinds(kinds []string) error {
	for _, k := range kinds {
		if !KnownKinds[k] || k == "probes" || k == "mixed" {
			return fmt.Errorf("unknown sweep kind %q (known: %v)", k, SweepKinds())
		}
	}
	return nil
}

// RunSweep runs one sweep kind by name and stores its section into res.
// skew only affects the shard and netshuffle sweeps. Unknown kinds list the registry in
// the error.
func RunSweep(kind string, scale, skew float64, res *Result) (*experiments.Report, error) {
	var rep *experiments.Report
	var err error
	switch kind {
	case "mem-sweep":
		res.MemSweep, rep, err = RunMemSweep(scale)
	case "filter-sweep":
		res.FilterSweep, rep, err = RunFilterSweep(scale)
	case "dop-sweep":
		res.DopSweep, rep, err = RunDopSweep(scale)
	case "columnar-sweep":
		res.ColumnarSweep, rep, err = RunColumnarSweep(scale)
	case "shard-sweep":
		res.ShardSweep, rep, err = RunShardSweep(scale, skew)
	case "server-sweep":
		res.ServerSweep, rep, err = RunServerSweep(scale)
	case "netshuffle-sweep":
		res.NetShuffleSweep, rep, err = RunNetShuffleSweep(scale, skew)
	default:
		return nil, fmt.Errorf("unknown sweep kind %q (known: %v)", kind, SweepKinds())
	}
	return rep, err
}
