package main

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"rqp/internal/core"
	"rqp/internal/server"
	"rqp/internal/types"
)

// TestReplLoop pipes a script through the shells' one statement loop with a
// stub executor: statements span lines and end at a line holding ';', blank
// statements run nothing, a meta command runs between statements, \q ends the
// script, and the prompt follows every statement and meta command.
func TestReplLoop(t *testing.T) {
	script := "SELECT a\nFROM t;\n;\n\\metrics\n  SELECT 2;  \nINSERT INTO t VALUES (1);\n\\q\nSELECT 3;\n"
	var ran []string
	var out strings.Builder
	meta := map[string]func(io.Writer){`\metrics`: func(w io.Writer) { fmt.Fprintln(w, "counters") }}
	err := repl(strings.NewReader(script), &out, meta, func(stmt string, w io.Writer) error {
		ran = append(ran, stmt)
		fmt.Fprintf(w, "ran %d\n", len(ran))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT a\nFROM t;", "SELECT 2;", "INSERT INTO t VALUES (1);"}
	if fmt.Sprintf("%q", ran) != fmt.Sprintf("%q", want) {
		t.Errorf("ran %q, want %q", ran, want)
	}
	if got, wantOut := out.String(), "rqp> ran 1\nrqp> rqp> counters\nrqp> ran 2\nrqp> ran 3\nrqp> "; got != wantOut {
		t.Errorf("printed %q, want %q", got, wantOut)
	}

	// Without a meta table a meta command is statement text, and an error
	// from the executor ends the loop without another prompt.
	ran, out = nil, strings.Builder{}
	stop := errors.New("connection closed")
	err = repl(strings.NewReader("\\metrics\nSELECT 1;\nSELECT 2;\n"), &out, nil, func(stmt string, w io.Writer) error {
		ran = append(ran, stmt)
		return stop
	})
	if err != stop {
		t.Fatalf("error %v, want %v", err, stop)
	}
	if len(ran) != 1 || ran[0] != "\\metrics\nSELECT 1;" {
		t.Errorf("ran %q, want the one statement before the error", ran)
	}
	if out.String() != "rqp> " {
		t.Errorf("printed %q after the error, want only the first prompt", out.String())
	}
}

// TestExplainOverTheWire runs one script through the in-process shell and
// through the -connect shell against a server over an identical engine:
// EXPLAIN prints the same bytes both ways, and EXPLAIN ANALYZE prints its
// plan over the wire too.
func TestExplainOverTheWire(t *testing.T) {
	open := func() *core.Engine {
		eng := core.Open(core.DefaultConfig())
		eng.MustExec("CREATE TABLE r (a int, b int)")
		for i := 0; i < 40; i++ {
			eng.MustExec("INSERT INTO r VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i%4)))
		}
		eng.MustExec("ANALYZE r")
		return eng
	}
	const explain = "EXPLAIN SELECT b, COUNT(*) FROM r WHERE a < 30 GROUP BY b;\n"
	var local strings.Builder
	if err := repl(strings.NewReader(explain), &local, nil, localExec(open())); err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Config{Engine: open()})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := server.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var remote strings.Builder
	if err := repl(strings.NewReader(explain), &remote, nil, remoteExec(c)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(local.String(), "Scan(r)") || remote.String() != local.String() {
		t.Fatalf("EXPLAIN over the wire printed\n%s\nin process\n%s", remote.String(), local.String())
	}

	remote.Reset()
	if err := repl(strings.NewReader("EXPLAIN ANALYZE SELECT a FROM r WHERE b = 1;\n"), &remote, nil, remoteExec(c)); err != nil {
		t.Fatal(err)
	}
	if out := remote.String(); !strings.Contains(out, "Scan(r)") || !strings.Contains(out, "-- 10 row(s), cost ") {
		t.Fatalf("EXPLAIN ANALYZE over the wire printed\n%s", out)
	}
}
