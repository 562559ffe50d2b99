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
	"io"
	"os"
	"strings"

	"rqp/cmd/internal/engineflag"
	"rqp/internal/core"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/server"
	"rqp/internal/types"
	"rqp/internal/wlm"
)

func main() {
	ef := engineflag.Register(flag.CommandLine, engineflag.Defaults{})
	var (
		connect = flag.String("connect", "",
			"connect to an rqpserver at host:port over the wire protocol instead of running an in-process engine")
		mode         = flag.String("estimate", "expected", "estimation mode: expected | percentile | correlated")
		shuffleForce = flag.String("shuffle-force", "",
			"override the costed shuffle choice: repartition | broadcast (default: costed)")
		noHotSplit = flag.Bool("no-hot-split", false,
			"disable hot-key splitting in sharded joins (skew-robustness ablation)")
		columnar  = flag.Bool("columnar", false, "build columnar snapshots for attached tables; optimizer may choose ColScan")
		memShrink = flag.Int("mem-shrink", 0,
			"inject memory pressure: budget declines from -mem to this floor across grants mid-query")
	)
	flag.Parse()

	if *connect != "" {
		if err := remoteShell(*connect); err != nil {
			engineflag.Fatal(err)
		}
		return
	}

	cfg, err := ef.Config()
	if err != nil {
		engineflag.Fatal(err)
	}
	switch *mode {
	case "expected":
		cfg.Mode = opt.Expected
	case "percentile":
		cfg.Mode = opt.Percentile
	case "correlated":
		cfg.Mode = opt.Correlated
	default:
		engineflag.Fatal(engineflag.Usagef("unknown estimation mode %q", *mode))
	}
	switch *shuffleForce {
	case "":
	case "repartition":
		cfg.ShuffleForce = plan.ShuffleRepartition
	case "broadcast":
		cfg.ShuffleForce = plan.ShuffleBroadcast
	default:
		engineflag.Fatal(engineflag.Usagef("unknown shuffle force %q: repartition | broadcast", *shuffleForce))
	}
	cfg.ShardNoHotSplit = *noHotSplit
	cfg.Columnar = *columnar
	if *memShrink > 0 {
		cfg.MemSchedule = wlm.DecliningMemory(cfg.MemBudgetRows, *memShrink, 8)
	}
	eng, closeEng, err := ef.Open(cfg)
	if err != nil {
		engineflag.Fatal(err)
	}
	defer closeEng()

	fmt.Printf("rqp shell (policy=%s, estimate=%s, leo=%v). End statements with ';'. \\metrics dumps counters, \\q quits.\n",
		ef.Policy, *mode, ef.LEO)
	meta := map[string]func(io.Writer){`\metrics`: func(w io.Writer) { fmt.Fprint(w, eng.Metrics.Expose()) }}
	repl(os.Stdin, os.Stdout, meta, localExec(eng))
}

// localExec runs and prints each statement of the in-process shell.
func localExec(eng *core.Engine) func(stmt string, w io.Writer) error {
	return func(stmt string, w io.Writer) error {
		res, err := eng.Exec(stmt)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return nil
		}
		if res.Plan != "" && len(res.Rows) == 0 {
			fmt.Fprint(w, res.Plan)
		}
		printRows(w, res.Columns, res.Rows)
		if res.Affected > 0 {
			fmt.Fprintf(w, "%d row(s) affected\n", res.Affected)
		}
		if res.Cost > 0 {
			fmt.Fprintf(w, "-- cost %.2f units, %d reopt(s)\n", res.Cost, res.Reopts)
		}
		return nil
	}
}

// remoteShell is the -connect shell: the in-process shell's statement loop
// over the wire protocol to an rqpserver. WLM backpressure notices
// (WLM_QUEUED / WLM_ADMITTED) print before the result, so a queued statement
// explains its own latency. An EXPLAIN result prints as its plan text, as
// the in-process shell prints it. A protocol error closes the connection and
// ends the loop.
func remoteShell(addr string) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("connected to rqpserver at %s (session %d). End statements with ';'. \\q quits.\n",
		addr, c.SessionID)
	return repl(os.Stdin, os.Stdout, nil, remoteExec(c))
}

// remoteExec runs and prints each statement of the -connect shell.
func remoteExec(c *server.Client) func(stmt string, w io.Writer) error {
	return func(stmt string, w io.Writer) error {
		rs, err := c.Query(stmt)
		if rs != nil {
			for _, n := range rs.Notices {
				fmt.Fprintf(w, "-- notice %s: %s\n", n.Code, n.Message)
			}
		}
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			if se, ok := err.(*server.ServerError); ok && se.Code == server.CodeProto {
				return fmt.Errorf("connection closed by server: %s", se.Message)
			}
			return nil
		}
		if rs.Tag == "EXPLAIN" { // plan text, one row per line
			for _, r := range rs.Rows {
				fmt.Fprintln(w, r[0].S)
			}
		} else {
			printRows(w, rs.Columns, rs.Rows)
		}
		if rs.Tag == "OK" && rs.RowCount > 0 {
			fmt.Fprintf(w, "%d row(s) affected\n", rs.RowCount)
		}
		if rs.CostUnits > 0 {
			fmt.Fprintf(w, "-- cost %.2f units, %d reopt(s)\n", rs.CostUnits, rs.Reopts)
		}
		return nil
	}
}

// repl is the statement loop of both shells. It reads lines from in until
// \q, quit or exit, runs a line naming a meta command, and hands run every
// statement — the lines up to one holding ';' — to execute and print its
// result to out. An error from run ends the loop and is returned.
func repl(in io.Reader, out io.Writer, meta map[string]func(io.Writer), run func(stmt string, out io.Writer) error) error {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	fmt.Fprint(out, "rqp> ")
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == `\q` || trimmed == "quit" || trimmed == "exit" {
			return nil
		}
		if m := meta[trimmed]; m != nil {
			m(out)
			fmt.Fprint(out, "rqp> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt != "" && stmt != ";" {
			if err := run(stmt, out); err != nil {
				return err
			}
		}
		fmt.Fprint(out, "rqp> ")
	}
	return nil
}

// printRows prints a result's header and rows; a result without rows
// prints nothing.
func printRows(w io.Writer, cols []string, rows []types.Row) {
	if len(cols) > 0 && len(rows) > 0 {
		fmt.Fprintln(w, strings.Join(cols, " | "))
	}
	for _, row := range rows {
		fmt.Fprintln(w, row)
	}
}
