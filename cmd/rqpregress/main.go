// Command rqpregress is the benchmark regression gate: it re-runs the
// sweeps and probes a committed BENCH_*.json baseline describes — at the
// baseline's own recorded scale and configuration — and fails (exit 1)
// when any deterministic simulated-cost metric regressed past the
// tolerance band, an exactness invariant decayed, or coverage silently
// shrank. Wall-clock fields are never gated (they are machine-dependent);
// the simulated cost clock is deterministic, so the default band exists
// only to absorb intentional cost-model changes, which must ship with
// regenerated baselines.
//
// Usage:
//
//	rqpregress BENCH_spill.json BENCH_filter.json          # regenerate & diff
//	rqpregress -tol 5 BENCH_parallel.json                  # 5% band
//	rqpregress -fresh new.json BENCH_spill.json            # diff two files
//
// Baselines must be self-describing (bench.Meta); files produced before
// the meta header existed are rejected as un-comparable.
package main

import (
	"flag"
	"fmt"
	"os"

	"rqp/internal/bench"
	"rqp/internal/server"
)

// freshFor regenerates, in-process, every section the baseline contains,
// under the baseline's recorded configuration.
func freshFor(base *bench.Result) (*bench.Result, error) {
	m := base.Meta
	fresh := &bench.Result{Meta: bench.NewMeta(m.Kind, m.Scale, m.DOP, m.RF, m.MemBudgetRows, m.Shards, m.Skew)}
	if len(base.MemSweep) > 0 {
		points, _, err := bench.RunMemSweep(m.Scale)
		if err != nil {
			return nil, fmt.Errorf("mem-sweep: %w", err)
		}
		fresh.MemSweep = points
	}
	if len(base.FilterSweep) > 0 {
		points, _, err := bench.RunFilterSweep(m.Scale)
		if err != nil {
			return nil, fmt.Errorf("filter-sweep: %w", err)
		}
		fresh.FilterSweep = points
	}
	if len(base.DopSweep) > 0 {
		points, _, err := bench.RunDopSweep(m.Scale)
		if err != nil {
			return nil, fmt.Errorf("dop-sweep: %w", err)
		}
		fresh.DopSweep = points
	}
	if len(base.ColumnarSweep) > 0 {
		points, _, err := bench.RunColumnarSweep(m.Scale)
		if err != nil {
			return nil, fmt.Errorf("columnar-sweep: %w", err)
		}
		fresh.ColumnarSweep = points
	}
	if len(base.ShardSweep) > 0 {
		points, _, err := bench.RunShardSweep(m.Scale, m.Skew)
		if err != nil {
			return nil, fmt.Errorf("shard-sweep: %w", err)
		}
		fresh.ShardSweep = points
	}
	if len(base.ServerSweep) > 0 {
		points, _, err := bench.RunServerSweep(m.Scale)
		if err != nil {
			return nil, fmt.Errorf("server-sweep: %w", err)
		}
		fresh.ServerSweep = points
	}
	if len(base.NetShuffleSweep) > 0 {
		points, _, err := bench.RunNetShuffleSweep(m.Scale, m.Skew)
		if err != nil {
			return nil, fmt.Errorf("netshuffle-sweep: %w", err)
		}
		fresh.NetShuffleSweep = points
	}
	if len(base.Queries) > 0 {
		qs, err := bench.ProbeQueries(m.Scale, m.DOP, m.Shards)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		fresh.Queries = qs
	}
	return fresh, nil
}

func main() {
	// The netshuffle sweep spawns worker processes by re-executing this
	// binary; a spawned copy must become a worker, not run the gate.
	server.MaybeRunShardWorker()
	var (
		tol       = flag.Float64("tol", 2.0, "allowed cost increase in percent before the gate fails")
		freshPath = flag.String("fresh", "",
			"compare this pre-generated rqpbench -json file instead of re-running the workloads in-process")
	)
	flag.Parse()
	baselines := flag.Args()
	if len(baselines) == 0 {
		fmt.Fprintln(os.Stderr, "usage: rqpregress [-tol pct] [-fresh file.json] baseline.json...")
		os.Exit(2)
	}
	if *freshPath != "" && len(baselines) != 1 {
		fmt.Fprintln(os.Stderr, "rqpregress: -fresh compares exactly one baseline")
		os.Exit(2)
	}

	failed := false
	for _, path := range baselines {
		base, err := bench.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rqpregress: %v\n", err)
			failed = true
			continue
		}
		if base.Meta.Kind == "" {
			fmt.Fprintf(os.Stderr, "rqpregress: %s has no meta header; regenerate it with current rqpbench -json\n", path)
			failed = true
			continue
		}
		var fresh *bench.Result
		if *freshPath != "" {
			fresh, err = bench.Load(*freshPath)
		} else {
			fresh, err = freshFor(base)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rqpregress: %s: %v\n", path, err)
			failed = true
			continue
		}
		violations := bench.Compare(base, fresh, *tol)
		fmt.Printf("== %s ==\n%s\n", path, bench.Summary(base, fresh, *tol, violations))
		if len(violations) > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}
