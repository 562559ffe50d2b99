// Command rqpbench regenerates the Dagstuhl report's figures, tables and
// proposed benchmarks on the rqp engine.
//
// Usage:
//
//	rqpbench                 # run everything at full scale
//	rqpbench -e E1,E5,E13    # run selected experiments
//	rqpbench -scale 0.25     # shrink workloads for a quick pass
//	rqpbench -list           # list experiments
//	rqpbench -json           # machine-readable results on stdout
//	rqpbench -sweep mem-sweep            # memory-degradation robustness map
//	rqpbench -json -sweep mem-sweep -o BENCH_spill.json
//	rqpbench -json -sweep filter-sweep -o BENCH_filter.json     # runtime-filter selectivity map
//	rqpbench -json -sweep dop-sweep -o BENCH_parallel.json      # DOP cost-parity map
//	rqpbench -json -sweep columnar-sweep -o BENCH_columnar.json # heap-vs-columnar map
//	rqpbench -json -sweep shard-sweep -o BENCH_shard.json       # shard/skew/straggler map
//	rqpbench -json -sweep server-sweep -o BENCH_server.json     # wire-protocol concurrency map
//	rqpbench -json -sweep netshuffle-sweep -o BENCH_netshuffle.json # TCP shuffle to worker processes
//	rqpbench -sweep mem-sweep,shard-sweep   # several sweeps in one file
//	rqpbench -shards 4       # run the traced probes on 4 logical shards
//	rqpbench -debug-addr :6060   # live /metrics /queries /trace/{id} while running
//
// Every -json file embeds a meta header (timestamp, Go version, scale,
// DOP, shards, skew, seed) so cmd/rqpregress can refuse mismatched runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"rqp/internal/bench"
	"rqp/internal/experiments"
	"rqp/internal/server"
)

func main() {
	// The netshuffle sweep (E30) spawns worker processes by re-executing
	// this binary; a spawned copy must become a worker, not run the bench.
	server.MaybeRunShardWorker()
	var (
		exps     = flag.String("e", "", "comma-separated experiment ids (default: all)")
		scale    = flag.Float64("scale", 1.0, "workload scale in (0, 1]")
		list     = flag.Bool("list", false, "list experiments and exit")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of text reports")
		jsonOut  = flag.String("o", "", "with -json, write to this file instead of stdout")
		noProbes = flag.Bool("no-probes", false, "with -json, skip the per-query traced probes")
		dop      = flag.Int("dop", 0, "degree of parallelism for traced probes (0/1 serial, -1 all cores)")
		shards   = flag.Int("shards", 0, "logical shard count for traced probes (0/1 unsharded)")
		skew     = flag.Float64("skew", 0,
			"Zipf key-skew override for the shard sweep (0 = built-in skew ladder)")
		sweepArg = flag.String("sweep", "",
			fmt.Sprintf("comma-separated sweep kinds to run; known: %s", strings.Join(bench.SweepKinds(), ", ")))
		debugAddr = flag.String("debug-addr", "",
			"serve live introspection (/metrics, /queries, /trace/{id}, pprof) on this address while the bench runs")
	)
	flag.Parse()

	reg := experiments.Registry()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// Collect the requested sweep kinds, deduplicated in order.
	var kinds []string
	seen := map[string]bool{}
	for _, k := range strings.Split(*sweepArg, ",") {
		k = strings.TrimSpace(k)
		if k != "" && !seen[k] {
			seen[k] = true
			kinds = append(kinds, k)
		}
	}
	// Fail fast on a misspelled kind — before any experiment burns minutes
	// of sweep time only for the batch to die halfway through.
	if err := bench.ValidateSweepKinds(kinds); err != nil {
		fmt.Fprintf(os.Stderr, "rqpbench: %v\n", err)
		os.Exit(2)
	}

	anySweep := len(kinds) > 0
	ids := experiments.IDs()
	if *exps != "" {
		ids = strings.Split(*exps, ",")
	} else if anySweep {
		// A sweep alone runs just that sweep; combine with -e to add
		// experiments.
		ids = nil
	}
	kind := "probes"
	switch {
	case len(kinds) == 1 && *exps == "":
		kind = kinds[0]
	case anySweep || *exps != "":
		kind = "mixed"
	}
	result := bench.Result{Meta: bench.NewMeta(kind, *scale, *dop, *shards, *skew)}

	if *debugAddr != "" {
		srv, err := bench.StartProbeDebugServer(*debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "debug server listening on %s\n", srv.Addr)
		defer srv.Close()
	}

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := reg[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		rep, err := run(*scale)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			failed++
			continue
		}
		if *asJSON {
			result.Experiments = append(result.Experiments, bench.Experiment{
				ID: rep.ID, Title: rep.Title,
				WallMS:   float64(wall.Microseconds()) / 1000,
				Headline: rep.KV,
			})
		} else {
			fmt.Println(rep)
			fmt.Printf("(%s wall time: %v)\n\n", id, wall.Round(time.Millisecond))
		}
	}
	for _, k := range kinds {
		start := time.Now()
		rep, err := bench.RunSweep(k, *scale, *skew, &result)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", k, err)
			failed++
			continue
		}
		if !*asJSON {
			fmt.Println(rep)
			fmt.Printf("(%s wall time: %v)\n\n", k, wall.Round(time.Millisecond))
		}
	}
	if *asJSON {
		if !*noProbes && (!anySweep || *exps != "") {
			qs, err := bench.ProbeQueries(*scale, *dop, *shards)
			if err != nil {
				fmt.Fprintf(os.Stderr, "query probes failed: %v\n", err)
				failed++
			} else {
				result.Queries = qs
			}
		}
		raw, err := json.MarshalIndent(result, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		raw = append(raw, '\n')
		if *jsonOut != "" {
			if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			os.Stdout.Write(raw)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
