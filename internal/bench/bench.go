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

// Meta makes a benchmark file self-describing. Identity fields (Kind,
// Scale, DOP, Seed, Shards, Skew) must match for two files to be
// comparable; provenance fields (Timestamp, GoVersion, OS, Arch) are
// informational.
type Meta struct {
	Kind      string  `json:"kind"` // a name in the kinds registry
	Timestamp string  `json:"timestamp"`
	GoVersion string  `json:"go_version"`
	OS        string  `json:"os"`
	Arch      string  `json:"arch"`
	Scale     float64 `json:"scale"`
	DOP       int     `json:"dop"`
	Seed      int64   `json:"seed"`
	// Shards and Skew pin the sharded-execution configuration: a baseline
	// produced at one shard count or key skew must not gate a run at
	// another (the shuffle overhead and makespan are not comparable).
	Shards int     `json:"shards,omitempty"`
	Skew   float64 `json:"skew,omitempty"`
}

// NewMeta stamps a meta header for a run produced right now by this
// binary.
func NewMeta(kind string, scale float64, dop, shards int, skew float64) Meta {
	return Meta{
		Kind:      kind,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Scale:     scale,
		DOP:       dop,
		Shards:    shards,
		Skew:      skew,
		Seed:      ProbeSeed,
	}
}

// kind is one bench-file kind: its Meta.Kind name, the JSON name of the
// Result section it fills, and the runner that fills it.
type kind struct {
	name    string
	section string
	run     func(scale, skew float64, r *Result) (*experiments.Report, error)
}

// kinds is the registry of bench-file kinds. A new kind is one tagged point
// type, one Result field and one entry here: Compare refuses a file whose
// kind is missing, so a section cannot land ungated. probes and mixed have
// no runner; rqpbench produces them directly. skew only narrows the shard
// and netshuffle sweeps' skew ladders to that one Zipf parameter.
var kinds = []kind{
	{"probes", "queries", nil},
	{"mixed", "", nil},
	{"mem-sweep", "mem_sweep", func(scale, _ float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.MemSweep, err = experiments.MemSweep(scale)
		return rep, err
	}},
	{"filter-sweep", "filter_sweep", func(scale, _ float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.FilterSweep, err = experiments.FilterSweep(scale)
		return rep, err
	}},
	{"dop-sweep", "dop_sweep", func(scale, _ float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.DopSweep, err = experiments.DopSweep(scale)
		return rep, err
	}},
	{"columnar-sweep", "columnar_sweep", func(scale, _ float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.ColumnarSweep, err = experiments.ColumnarSweep(scale)
		return rep, err
	}},
	{"shard-sweep", "shard_sweep", func(scale, skew float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.ShardSweep, err = experiments.ShardSweep(scale, skew)
		return rep, err
	}},
	{"server-sweep", "server_sweep", func(scale, _ float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.ServerSweep, err = experiments.ServerSweep(scale)
		return rep, err
	}},
	// The caller's binary must run server.MaybeRunShardWorker() at startup:
	// the sweep re-executes it to spawn its worker processes.
	{"netshuffle-sweep", "netshuffle_sweep", func(scale, skew float64, r *Result) (rep *experiments.Report, err error) {
		rep, r.NetShuffleSweep, err = experiments.NetShuffleSweep(scale, skew)
		return rep, err
	}},
}

// kindNamed returns the registered kind called name, or nil.
func kindNamed(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
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
	Policy        string  `json:"policy" gate:"key"`
	ID            int     `json:"id" gate:"key"`
	Trapped       bool    `json:"trapped"`
	Rows          int     `json:"rows" gate:"equal"`
	CostUnits     float64 `json:"cost_units" gate:"tol"`
	Reopts        int     `json:"reopts"`
	QErrorGeomean float64 `json:"qerror_geomean"`
	Fingerprint   string  `json:"fingerprint,omitempty"`
}

// Result is one bench file: the meta header plus whichever sections the
// run produced. Every slice section but Experiments is gated by Compare
// through its point type's gate tags.
type Result struct {
	Meta            Meta                               `json:"meta"`
	Experiments     []Experiment                       `json:"experiments,omitempty"`
	Queries         []Query                            `json:"queries,omitempty"`
	MemSweep        []experiments.MemSweepPoint        `json:"mem_sweep,omitempty"`
	FilterSweep     []experiments.FilterSweepPoint     `json:"filter_sweep,omitempty"`
	DopSweep        []experiments.DopSweepPoint        `json:"dop_sweep,omitempty"`
	ColumnarSweep   []experiments.ColumnarSweepPoint   `json:"columnar_sweep,omitempty"`
	ShardSweep      []experiments.ShardSweepPoint      `json:"shard_sweep,omitempty"`
	ServerSweep     []experiments.ServerSweepPoint     `json:"server_sweep,omitempty"`
	NetShuffleSweep []experiments.NetShuffleSweepPoint `json:"netshuffle_sweep,omitempty"`
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
				Rows: len(res.Rows), CostUnits: res.Cost, Reopts: res.Reopts, QErrorGeomean: res.Record.QErrorGeomean,
			}
			if res.Trace != nil {
				qj.Fingerprint = res.Trace.Fingerprint()
			}
			out = append(out, qj)
		}
	}
	return out, nil
}

// SweepKinds lists the kinds RunSweep dispatches, sorted: the -sweep
// flag's registry.
func SweepKinds() []string {
	var names []string
	for _, k := range kinds {
		if k.run != nil {
			names = append(names, k.name)
		}
	}
	sort.Strings(names)
	return names
}

// ValidateSweepKinds rejects the first kind RunSweep would not dispatch,
// naming the registry — so callers can fail fast before running anything.
func ValidateSweepKinds(names []string) error {
	for _, name := range names {
		if k := kindNamed(name); k == nil || k.run == nil {
			return fmt.Errorf("unknown sweep kind %q (known: %v)", name, SweepKinds())
		}
	}
	return nil
}

// RunSweep runs one sweep kind by name and stores its section into res.
// Unknown kinds list the registry in the error.
func RunSweep(name string, scale, skew float64, res *Result) (*experiments.Report, error) {
	if err := ValidateSweepKinds([]string{name}); err != nil {
		return nil, err
	}
	return kindNamed(name).run(scale, skew, res)
}
