// Package engineflag holds the engine flags rqpsh and rqpserver share: it
// registers them on a FlagSet with the binary's defaults, maps them to a
// core.Config, and opens the engine that Config configures, with the plan
// cache, debug server and query log the flags ask for.
package engineflag

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rqp/internal/core"
	"rqp/internal/obs"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// Defaults are the shared flags whose default a binary picks: the zero
// value is rqpsh's (no database, no admission gate, no plan cache).
type Defaults struct {
	DB    string
	MPL   int
	Cache bool
}

// Flags are the parsed engine flags.
type Flags struct {
	DB, Policy, DebugAddr, QueryLog string
	Scale                           float64
	LEO, Cache, RF                  bool
	MPL, MemPool, DOP, Shards, Mem  int
}

// Register defines the engine flags on fs with d's defaults.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{}
	fs.StringVar(&f.DB, "db", d.DB, "preload a workload database: tpch | star | (empty)")
	fs.Float64Var(&f.Scale, "scale", 0.5, "workload scale for -db tpch (-db star ignores it)")
	fs.StringVar(&f.Policy, "policy", "classic", "execution policy: classic | pop | pop-eager | rio")
	fs.BoolVar(&f.LEO, "leo", false, "enable LEO execution feedback")
	fs.BoolVar(&f.Cache, "cache", d.Cache, "enable the plan cache (classic policy)")
	fs.IntVar(&f.MPL, "mpl", d.MPL, "admission control multiprogramming limit (0 = unlimited)")
	fs.IntVar(&f.MemPool, "mempool", 0,
		"with -mpl, workspace rows shared by running queries (arrivals reclaim from the running)")
	fs.IntVar(&f.DOP, "dop", 0, "degree of parallelism (0/1 = serial, -1 = all cores)")
	fs.IntVar(&f.Shards, "shards", 0, "logical shard count for sharded join execution (0/1 = unsharded)")
	fs.BoolVar(&f.RF, "rf", false, "enable runtime join filters (Bloom + bounds pushed into probe-side scans)")
	fs.IntVar(&f.Mem, "mem", 0, "per-query workspace budget in rows (0 = default); operators over budget spill")
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve live introspection (/metrics, /queries, /trace/{id}, pprof) on this address; implies per-query tracing")
	fs.StringVar(&f.QueryLog, "querylog", "",
		"append one structured JSONL record per completed query to this file")
	return f
}

// Config maps the flags to an engine configuration. Its errors are usage
// errors.
func (f *Flags) Config() (core.Config, error) {
	cfg := core.DefaultConfig()
	var err error
	if cfg.Policy, err = core.ParsePolicy(f.Policy); err != nil {
		return cfg, usageError{err}
	}
	if f.MemPool > 0 && f.MPL <= 0 {
		return cfg, Usagef("-mempool requires -mpl > 0")
	}
	cfg.LEO = f.LEO
	if f.MPL > 0 {
		cfg.Admission = wlm.NewAdmitter(f.MPL)
		cfg.MemPoolRows = f.MemPool
	}
	cfg.DOP = f.DOP
	cfg.Shards = f.Shards
	cfg.RuntimeFilters = f.RF
	if f.Mem > 0 {
		cfg.MemBudgetRows = f.Mem
	}
	// Tracing gives /queries its progress estimates and /trace/{id} its
	// span trees; without it the registry still tracks IDs and phases.
	cfg.TraceAll = f.DebugAddr != ""
	return cfg, nil
}

// Open attaches an engine configured by cfg to the -db workload, with the
// plan cache, debug server and query log the flags ask for. An unknown -db
// is a usage error. closeAll stops the debug server and closes the query
// log.
func (f *Flags) Open(cfg core.Config) (eng *core.Engine, closeAll func(), err error) {
	var closers []io.Closer
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}
	if f.QueryLog != "" {
		sink, c, err := obs.OpenJSONLFile(f.QueryLog)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, c)
		cfg.QueryLog = sink
	}
	cat, err := workload.Load(f.DB, f.Scale)
	if err != nil {
		closeAll()
		return nil, nil, usageError{err}
	}
	eng = core.Attach(cat, cfg)
	if f.Cache {
		eng.Cache = core.NewPlanCache(0)
	}
	if f.DebugAddr != "" {
		srv, err := obs.StartDebugServer(f.DebugAddr, eng.Metrics, eng.Lifecycle)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		closers = append(closers, srv)
		fmt.Printf("debug server listening on %s (/metrics, /queries, /trace/{id}, /debug/pprof)\n", srv.Addr)
	}
	return eng, closeAll, nil
}

// usageError is a mistake on the command line; Fatal exits 2 on it, as the
// flag package does.
type usageError struct{ error }

// Usagef formats a usage error.
func Usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// Fatal prints err to standard error and exits: 2 on a usage error, 1 on
// any other.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}
