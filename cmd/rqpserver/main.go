// Command rqpserver serves the rqp engine over the TCP wire protocol
// (docs/WIRE_PROTOCOL.md): one session per connection, statements and
// plans shared through the engine's plan cache, and the WLM admission gate
// queueing clients FIFO when the multiprogramming limit is reached.
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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rqp/cmd/internal/engineflag"
	"rqp/internal/server"
)

func main() {
	// A copy re-exec'd as a shard worker (RQP_SHARD_WORKER set) serves the
	// worker loop instead of the session protocol.
	server.MaybeRunShardWorker()
	ef := engineflag.Register(flag.CommandLine, engineflag.Defaults{DB: "star", MPL: 4, Cache: true})
	var (
		addr         = flag.String("addr", ":5433", "listen address")
		queueTimeout = flag.Duration("queue-timeout", 10*time.Second,
			"how long a session waits in the admission queue before ERR_ADMIT")
		shardWorker = flag.Bool("shard-worker", false,
			"run as a standalone shard worker on -addr (serves shuffle exchanges, not sessions)")
		shardPeers = flag.String("shard-peers", "",
			"comma-separated worker addresses; with -shards, exchanges shuffle over TCP to these peers")
	)
	flag.Parse()

	// Worker mode: serve shuffle exchanges on -addr and nothing else. The
	// -mpl gate applies per exchange (one slot from hello to teardown).
	if *shardWorker {
		ctx, stop := context.WithCancel(context.Background())
		onSignal(stop)
		err := server.ServeShardWorker(ctx, *addr, ef.MPL, *queueTimeout, func(addr string) {
			fmt.Printf("rqpserver shard worker listening on %s (mpl=%d)\n", addr, ef.MPL)
		})
		if err != nil {
			engineflag.Fatal(err)
		}
		return
	}

	cfg, err := ef.Config()
	if err != nil {
		engineflag.Fatal(err)
	}
	transport := "local"
	if *shardPeers != "" {
		var peers []string
		for _, p := range strings.Split(*shardPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		if cfg.Shards < 2 {
			engineflag.Fatal(engineflag.Usagef("-shard-peers requires -shards >= 2"))
		}
		if len(peers) < cfg.Shards {
			engineflag.Fatal(engineflag.Usagef("-shard-peers lists %d worker(s) for %d shards", len(peers), cfg.Shards))
		}
		cfg.ShuffleTransport = server.NewNetShuffleTransport(peers)
		transport = fmt.Sprintf("tcp(%s)", *shardPeers)
	}
	eng, closeEng, err := ef.Open(cfg)
	if err != nil {
		engineflag.Fatal(err)
	}
	defer closeEng()

	srv := server.New(server.Config{
		Engine:       eng,
		QueueTimeout: *queueTimeout,
	})
	if err := srv.Listen(*addr); err != nil {
		engineflag.Fatal(err)
	}
	fmt.Printf("rqpserver listening on %s (db=%s policy=%s mpl=%d mempool=%d shards=%d shuffle=%s)\n",
		srv.Addr(), ef.DB, ef.Policy, ef.MPL, ef.MemPool, ef.Shards, transport)

	// SIGINT/SIGTERM: stop accepting, close live sessions (their queries
	// cancel cooperatively), then exit.
	onSignal(func() { srv.Close() })
	if err := srv.Serve(); err != nil {
		engineflag.Fatal(err)
	}
}

// onSignal runs stop, once, on the first SIGINT or SIGTERM.
func onSignal(stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "shutting down")
		stop()
	}()
}
