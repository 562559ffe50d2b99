// Command rqpserver serves the rqp engine over the TCP wire protocol
// (docs/WIRE_PROTOCOL.md): one session per connection, prepared statements
// backed by the shared plan cache, and the WLM admission gate queueing
// clients FIFO when the multiprogramming limit is reached.
//
// Usage:
//
//	rqpserver -addr :5433 -db star -mpl 4 -mempool 40000
//	rqpserver -addr :5433 -db tpch -scale 0.5 -shards 4 -debug-addr :6060
//	rqpserver -db star -mpl 4 -queue-timeout 5s -querylog queries.jsonl
//
// Multi-process shuffle cluster — three shard workers plus a coordinator
// whose exchanges route build and probe rows to them over TCP:
//
//	rqpserver -shard-worker -addr 127.0.0.1:7101 &
//	rqpserver -shard-worker -addr 127.0.0.1:7102 &
//	rqpserver -shard-worker -addr 127.0.0.1:7103 &
//	rqpserver -db star -shards 3 -shard-peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//
// Connect with `rqpsh -connect host:5433` or the server.Client library.
// With -debug-addr, /queries shows live sessions' queries (including the
// queued phase while the gate is full) and /metrics the admission counters.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rqp/internal/core"
	"rqp/internal/obs"
	"rqp/internal/server"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

func main() {
	// A copy re-exec'd as a shard worker (RQP_SHARD_WORKER set) serves the
	// worker loop instead of the session protocol.
	server.MaybeRunShardWorker()
	var (
		addr    = flag.String("addr", ":5433", "listen address")
		db      = flag.String("db", "star", "workload database to serve: tpch | star | (empty)")
		scale   = flag.Float64("scale", 0.5, "workload scale for -db tpch")
		policy  = flag.String("policy", "classic", "execution policy: classic | pop | pop-eager | rio")
		mpl     = flag.Int("mpl", 4, "admission multiprogramming limit (0 = unlimited)")
		memPool = flag.Int("mempool", 0,
			"with -mpl, workspace rows shared by running queries (arrivals reclaim from the running)")
		queueTimeout = flag.Duration("queue-timeout", 10*time.Second,
			"how long a session waits in the admission queue before ERR_ADMIT")
		cache       = flag.Bool("cache", true, "enable the shared plan cache (classic policy)")
		dop         = flag.Int("dop", 0, "degree of parallelism (0/1 = serial, -1 = all cores)")
		shards      = flag.Int("shards", 0, "logical shard count for sharded joins (0/1 = unsharded)")
		shardWorker = flag.Bool("shard-worker", false,
			"run as a standalone shard worker on -addr (serves shuffle exchanges, not sessions)")
		shardPeers = flag.String("shard-peers", "",
			"comma-separated worker addresses; with -shards, exchanges shuffle over TCP to these peers")
		rf        = flag.Bool("rf", false, "enable runtime join filters")
		leo       = flag.Bool("leo", false, "enable LEO execution feedback")
		mem       = flag.Int("mem", 0, "per-query workspace budget in rows (0 = default)")
		debugAddr = flag.String("debug-addr", "",
			"serve live introspection (/metrics, /queries, /trace/{id}, pprof) on this address")
		queryLog = flag.String("querylog", "",
			"append one structured JSONL record per completed query to this file")
	)
	flag.Parse()

	// Worker mode: serve shuffle exchanges on -addr and nothing else. The
	// -mpl gate applies per exchange (one slot from hello to teardown).
	if *shardWorker {
		var admit *wlm.Admitter
		if *mpl > 0 {
			admit = wlm.NewAdmitter(*mpl)
		}
		w := server.NewShardWorker(server.ShardWorkerConfig{
			Admit: admit, QueueTimeout: *queueTimeout,
		})
		if err := w.Listen(*addr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("rqpserver shard worker listening on %s (mpl=%d)\n", w.Addr(), *mpl)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			fmt.Fprintln(os.Stderr, "shutting down")
			w.Close()
		}()
		if err := w.Serve(); err != nil && err != server.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := core.DefaultConfig()
	var err error
	if cfg.Policy, err = core.ParsePolicy(*policy); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.LEO = *leo
	if *mpl > 0 {
		cfg.Admission = wlm.NewAdmitter(*mpl)
		cfg.MemPoolRows = *memPool
	}
	cfg.DOP = *dop
	cfg.Shards = *shards
	if *shardPeers != "" {
		var peers []string
		for _, p := range strings.Split(*shardPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if *shards < 2 {
			fmt.Fprintln(os.Stderr, "-shard-peers requires -shards >= 2")
			os.Exit(2)
		}
		if len(peers) < *shards {
			fmt.Fprintf(os.Stderr, "-shard-peers lists %d worker(s) for %d shards\n", len(peers), *shards)
			os.Exit(2)
		}
		cfg.ShuffleTransport = server.NewNetShuffleTransport(peers)
	}
	cfg.RuntimeFilters = *rf
	if *mem > 0 {
		cfg.MemBudgetRows = *mem
	}
	if *debugAddr != "" {
		cfg.TraceAll = true
	}
	if *queryLog != "" {
		sink, closer, err := obs.OpenJSONLFile(*queryLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer closer.Close()
		cfg.QueryLog = sink
	}

	cat, err := workload.Load(*db, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eng := core.Attach(cat, cfg)
	if *cache {
		eng.Cache = core.NewPlanCache(0)
	}

	if *debugAddr != "" {
		dsrv, err := obs.StartDebugServer(*debugAddr, eng.Metrics, eng.Lifecycle)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer dsrv.Close()
		fmt.Printf("debug server on %s (/metrics, /queries, /trace/{id}, /debug/pprof)\n", dsrv.Addr)
	}

	srv := server.New(server.Config{
		Engine:       eng,
		QueueTimeout: *queueTimeout,
	})
	if err := srv.Listen(*addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	transport := "local"
	if *shardPeers != "" {
		transport = fmt.Sprintf("tcp(%s)", *shardPeers)
	}
	fmt.Printf("rqpserver listening on %s (db=%s policy=%s mpl=%d mempool=%d shards=%d shuffle=%s)\n",
		srv.Addr(), *db, *policy, *mpl, *memPool, *shards, transport)

	// SIGINT/SIGTERM: stop accepting, close live sessions (their queries
	// cancel cooperatively), then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down")
		srv.Close()
	}()

	if err := srv.Serve(); err != nil && err != server.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
