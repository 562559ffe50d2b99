// Command rqpsh is a minimal interactive shell over the rqp engine: type
// SQL, see rows; EXPLAIN shows plans with estimates. Flags select the
// robustness configuration so plan changes across policies can be compared
// interactively.
//
// Usage:
//
//	rqpsh                        # empty database, classic policy
//	rqpsh -db tpch -scale 0.5    # preloaded TPC-H-lite
//	rqpsh -policy pop -leo       # POP execution with LEO feedback
//	rqpsh -db tpch -mem 200      # tight workspace: big hash joins spill
//	rqpsh -db tpch -mem 2000 -mem-shrink 200   # budget collapses mid-query
//	rqpsh -db tpch -debug-addr :6060   # curl /queries, /metrics, /trace/{id}
//	rqpsh -db tpch -querylog queries.jsonl     # one JSON record per query
//	rqpsh -connect localhost:5433      # speak the wire protocol to rqpserver
//	echo "SELECT 1 FROM r" | rqpsh -db tpch
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"rqp/internal/core"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/server"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

func main() {
	var (
		connect = flag.String("connect", "",
			"connect to an rqpserver at host:port over the wire protocol instead of running an in-process engine")
		db           = flag.String("db", "", "preload a workload database: tpch | star | (empty)")
		scale        = flag.Float64("scale", 0.5, "workload scale for -db")
		policy       = flag.String("policy", "classic", "execution policy: classic | pop | pop-eager | rio")
		mode         = flag.String("estimate", "expected", "estimation mode: expected | percentile | correlated")
		leo          = flag.Bool("leo", false, "enable LEO execution feedback")
		cache        = flag.Bool("cache", false, "enable the plan cache (classic policy)")
		mpl          = flag.Int("mpl", 0, "admission control multiprogramming limit (0 = unlimited)")
		dop          = flag.Int("dop", 0, "degree of parallelism (0/1 = serial, -1 = all cores)")
		shards       = flag.Int("shards", 0, "logical shard count for sharded join execution (0/1 = unsharded)")
		shuffleForce = flag.String("shuffle-force", "",
			"override the costed shuffle choice: repartition | broadcast (default: costed)")
		noHotSplit = flag.Bool("no-hot-split", false,
			"disable hot-key splitting in sharded joins (skew-robustness ablation)")
		rf        = flag.Bool("rf", false, "enable runtime join filters (Bloom + bounds pushed into probe-side scans)")
		columnar  = flag.Bool("columnar", false, "build columnar snapshots for attached tables; optimizer may choose ColScan")
		mem       = flag.Int("mem", 0, "workspace memory budget in rows (0 = default); operators over budget spill")
		memShrink = flag.Int("mem-shrink", 0,
			"inject memory pressure: budget declines from -mem to this floor across grants mid-query")
		memPool = flag.Int("mempool", 0,
			"with -mpl, workspace rows shared by running queries (arrivals reclaim from the running)")
		debugAddr = flag.String("debug-addr", "",
			"serve live introspection (/metrics, /queries, /trace/{id}, pprof) on this address; implies per-query tracing")
		queryLog = flag.String("querylog", "",
			"append one structured JSONL record per completed query to this file")
	)
	flag.Parse()

	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
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
	switch *mode {
	case "expected":
		cfg.Mode = opt.Expected
	case "percentile":
		cfg.Mode = opt.Percentile
	case "correlated":
		cfg.Mode = opt.Correlated
	default:
		fmt.Fprintf(os.Stderr, "unknown estimation mode %q\n", *mode)
		os.Exit(2)
	}
	cfg.LEO = *leo
	if *mpl > 0 {
		cfg.Admission = wlm.NewAdmitter(*mpl)
		cfg.MemPoolRows = *memPool
	}
	cfg.DOP = *dop
	cfg.Shards = *shards
	switch *shuffleForce {
	case "":
	case "repartition":
		cfg.ShuffleForce = plan.ShuffleRepartition
	case "broadcast":
		cfg.ShuffleForce = plan.ShuffleBroadcast
	default:
		fmt.Fprintf(os.Stderr, "unknown shuffle force %q: repartition | broadcast\n", *shuffleForce)
		os.Exit(2)
	}
	cfg.ShardNoHotSplit = *noHotSplit
	cfg.RuntimeFilters = *rf
	cfg.Columnar = *columnar
	if *mem > 0 {
		cfg.MemBudgetRows = *mem
	}
	if *memShrink > 0 {
		cfg.MemSchedule = wlm.DecliningMemory(cfg.MemBudgetRows, *memShrink, 8)
	}
	if *debugAddr != "" {
		// Tracing gives /queries its progress estimates and /trace/{id} its
		// span trees; without it the registry still tracks IDs and phases.
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
		srv, err := obs.StartDebugServer(*debugAddr, eng.Metrics, eng.Lifecycle)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug server listening on %s (/metrics, /queries, /trace/{id}, /debug/pprof)\n", srv.Addr)
	}

	fmt.Printf("rqp shell (policy=%s, estimate=%s, leo=%v). End statements with ';'. \\metrics dumps counters, \\q quits.\n",
		*policy, *mode, *leo)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("rqp> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "\\q" || trimmed == "quit" || trimmed == "exit" {
			return
		}
		if trimmed == "\\metrics" {
			fmt.Print(eng.Metrics.Expose())
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt == "" || stmt == ";" {
			prompt()
			continue
		}
		res, err := eng.Exec(stmt)
		if err != nil {
			fmt.Println("error:", err)
			prompt()
			continue
		}
		if res.Plan != "" && len(res.Rows) == 0 {
			fmt.Print(res.Plan)
		}
		if len(res.Columns) > 0 && len(res.Rows) > 0 {
			fmt.Println(strings.Join(res.Columns, " | "))
		}
		for _, row := range res.Rows {
			fmt.Println(row)
		}
		if res.Affected > 0 {
			fmt.Printf("%d row(s) affected\n", res.Affected)
		}
		if res.Cost > 0 {
			fmt.Printf("-- cost %.2f units, %d reopt(s)\n", res.Cost, res.Reopts)
		}
		prompt()
	}
}

// remoteShell is the -connect REPL: the same read-statement/print-rows loop
// as the in-process shell, but speaking the wire protocol to an rqpserver.
// WLM backpressure notices (WLM_QUEUED / WLM_ADMITTED) print as they arrive
// in the result, so a queued statement explains its own latency.
func remoteShell(addr string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("connected to rqpserver at %s (session %d). End statements with ';'. \\q quits.\n",
		addr, c.SessionID)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Print("rqp> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "\\q" || trimmed == "quit" || trimmed == "exit" {
			return nil
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt == "" || stmt == ";" {
			prompt()
			continue
		}
		rs, err := c.Query(stmt)
		if rs != nil {
			for _, n := range rs.Notices {
				fmt.Printf("-- notice %s: %s\n", n.Code, n.Message)
			}
		}
		if err != nil {
			fmt.Println("error:", err)
			if se, ok := err.(*server.ServerError); ok && se.Code == server.CodeProto {
				return fmt.Errorf("connection closed by server: %s", se.Message)
			}
			prompt()
			continue
		}
		if len(rs.Columns) > 0 && len(rs.Rows) > 0 {
			fmt.Println(strings.Join(rs.Columns, " | "))
		}
		for _, row := range rs.Rows {
			fmt.Println(row)
		}
		if rs.Tag == "OK" && rs.RowCount > 0 {
			fmt.Printf("%d row(s) affected\n", rs.RowCount)
		}
		if rs.CostUnits > 0 {
			fmt.Printf("-- cost %.2f units\n", rs.CostUnits)
		}
		prompt()
	}
	return nil
}
