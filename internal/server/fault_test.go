package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"rqp/internal/core"
	"rqp/internal/obs"
	"rqp/internal/types"
	"rqp/internal/wlm"
)

// Faults in the middle of a streamed result. Since rows go out while the
// plan is still running, a statement can now end with half its result on
// the wire and operators open, grants held and an admission slot taken:
// every such ending must hand all of it back.

// faultBigQuery returns 300 000 rows (~18 MB on the wire: more than the
// socket buffers hold, so a reader that stops reading stalls the statement)
// through a hash join that holds a workspace grant while its output
// streams.
const (
	faultBigQuery = `SELECT l_orderkey, l_extendedprice, o_totalprice, n_name
		FROM lineitem, orders, nation WHERE l_orderkey = o_orderkey`
	faultBigRows = 12000 * 25
	// faultErrRows rows of g evaluate i + s to NULL; the next one fails.
	faultErrRows  = 600
	faultErrQuery = `SELECT i + s FROM g`
)

type faultEnv struct {
	srv  *Server
	eng  *core.Engine
	adm  *wlm.Admitter
	base int // goroutines before any client connected
}

// newFaultEnv is serveTPCH plus the table g, every statement traced so that
// its memory events can be read back from the lifecycle registry.
func newFaultEnv(t *testing.T, dop int) *faultEnv {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TraceAll = true
	cfg.DOP = dop
	srv, eng := serveTPCH(t, cfg)
	eng.MustExec("CREATE TABLE g (i int, s string)")
	for i := 0; i < faultErrRows; i++ {
		eng.MustExec("INSERT INTO g VALUES (?, ?)", types.Int(int64(i)), types.Null())
	}
	eng.MustExec("INSERT INTO g VALUES (?, ?)", types.Int(faultErrRows), types.Str("x"))
	// Let the accept loop start before counting goroutines.
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	env := &faultEnv{srv: srv, eng: eng, adm: eng.Cfg.Admission}
	waitFor(t, "first session to end", func() bool { return srv.Sessions() == 0 })
	env.base = runtime.NumGoroutine()
	return env
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// settled waits until nothing of the faulted statement is left: no session,
// no admission slot, no live query, no goroutine — and, when the statement
// took workspace grants, that its broker ended with none outstanding.
func (env *faultEnv) settled(t *testing.T, wantOutcome string, wantGrants bool) {
	t.Helper()
	waitFor(t, "sessions, admission slots, live queries and goroutines to return to baseline", func() bool {
		_, _, active, _ := env.adm.Stats()
		return env.srv.Sessions() == 0 && active == 0 && len(env.eng.Lifecycle.Active()) == 0 &&
			runtime.NumGoroutine() <= env.base
	})
	if _, depth, _ := env.adm.QueueStats(); depth != 0 {
		t.Errorf("admission queue depth %d after the fault", depth)
	}
	var rec *obs.QueryRecord
	recent := env.eng.Lifecycle.Recent() // newest first
	for i := range recent {
		if sql := recent[i].SQL; strings.Contains(sql, "FROM lineitem, orders, nation") || strings.Contains(sql, "FROM g") {
			rec = &recent[i]
			break
		}
	}
	if rec == nil {
		t.Fatal("the faulted statement never retired into the lifecycle registry")
	}
	if rec.Outcome != wantOutcome {
		t.Errorf("statement outcome %q, want %q", rec.Outcome, wantOutcome)
	}
	if !wantGrants {
		return
	}
	tr := env.eng.Lifecycle.TraceOf(rec.ID)
	if tr == nil {
		t.Fatal("no trace retained for the faulted statement")
	}
	last := ""
	for _, ev := range tr.Events() {
		if strings.HasPrefix(ev.Kind, "mem.") {
			last = ev.Kind + " " + ev.Detail
		}
	}
	if tr.CountEvents("mem.grant") == 0 {
		t.Fatal("the statement took no workspace grant: the check would be vacuous")
	}
	t.Logf("%d grants, last memory event: %s", tr.CountEvents("mem.grant"), last)
	if !strings.Contains(last, "in_use=0 ") {
		t.Errorf("workspace grants outstanding after the fault: last memory event %q", last)
	}
}

// rawClient speaks the protocol frame by frame, so a test decides when to
// read, stop reading, cancel or hang up.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	// A small receive buffer, so that an unread result backs up into the
	// server within a few megabytes whatever the kernel's autotuning allows.
	conn.(*net.TCPConn).SetReadBuffer(32 << 10)
	rc := &rawClient{t: t, conn: conn, br: bufio.NewReader(conn)}
	rc.send(MsgStartup, StartupMsg{Version: ProtocolVersion})
	if f := rc.next(); f.Type != MsgReady {
		t.Fatalf("handshake: frame %#x", f.Type)
	}
	return rc
}

func (rc *rawClient) send(typ byte, m Encoder) {
	rc.t.Helper()
	if err := WriteMsg(rc.conn, typ, m); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawClient) next() Frame {
	rc.t.Helper()
	f, err := ReadFrame(rc.br, MaxFrame)
	if err != nil {
		rc.t.Fatal(err)
	}
	return f
}

// startStream sends sql and reads RowDesc plus the first n rows.
func (rc *rawClient) startStream(sql string, n int) {
	rc.t.Helper()
	rc.send(MsgQuery, QueryMsg{SQL: sql})
	if f := rc.next(); f.Type != MsgRowDesc {
		rc.t.Fatalf("expected RowDesc first, got %#x", f.Type)
	}
	for i := 0; i < n; i++ {
		if f := rc.next(); f.Type != MsgRow {
			rc.t.Fatalf("row %d: frame %#x", i, f.Type)
		}
	}
}

// finish reads the rest of the cycle: more rows, then the error code (""
// for Complete), then Ready.
func (rc *rawClient) finish() (rows int, code string) {
	rc.t.Helper()
	for {
		switch f := rc.next(); f.Type {
		case MsgRow:
			if code != "" {
				rc.t.Fatal("row after the statement's Error")
			}
			rows++
		case MsgError:
			m, err := DecodeError(f.Payload)
			if err != nil {
				rc.t.Fatal(err)
			}
			code = m.Code
		case MsgComplete:
		case MsgReady:
			return rows, code
		default:
			rc.t.Fatalf("unexpected frame %#x", f.Type)
		}
	}
}

// stillUsable runs one more statement on the session.
func (rc *rawClient) stillUsable() {
	rc.t.Helper()
	rc.send(MsgQuery, QueryMsg{SQL: "SELECT COUNT(*) FROM nation"})
	if f := rc.next(); f.Type != MsgRowDesc {
		rc.t.Fatalf("session unusable after the fault: frame %#x", f.Type)
	}
	if rows, code := rc.finish(); rows != 1 || code != "" {
		rc.t.Fatalf("session unusable after the fault: %d rows, error %q", rows, code)
	}
}

func TestAbortMidStreamReleasesEverything(t *testing.T) {
	env := newFaultEnv(t, 1)
	rc := dialRaw(t, env.srv.Addr().String())
	rc.startStream(faultBigQuery, 500)
	rc.conn.Close() // a crashed client: no Terminate, unread rows in flight
	env.settled(t, "failed", true)
}

func TestCancelMidStreamKeepsSession(t *testing.T) {
	env := newFaultEnv(t, 1)
	rc := dialRaw(t, env.srv.Addr().String())
	rc.startStream(faultBigQuery, 500)
	rc.send(MsgCancel, nil)
	rows, code := rc.finish()
	if code != CodeCanceled {
		t.Fatalf("expected partial rows then %s, got %q after %d rows", CodeCanceled, code, 500+rows)
	}
	if 500+rows >= faultBigRows {
		t.Fatalf("cancel took effect only after the whole result (%d rows)", 500+rows)
	}
	rc.stillUsable()
	rc.conn.Close()
	env.settled(t, "failed", true)
}

func TestExecErrorMidStreamKeepsSession(t *testing.T) {
	env := newFaultEnv(t, 1)
	rc := dialRaw(t, env.srv.Addr().String())
	rc.startStream(faultErrQuery, faultErrRows)
	if rows, code := rc.finish(); rows != 0 || code != CodeExec {
		t.Fatalf("expected %s right after row %d, got %d more rows and %q", CodeExec, faultErrRows, rows, code)
	}
	rc.stillUsable()
	rc.conn.Close()
	env.settled(t, "failed", false)
}

// TestStalledReaderDisconnect stops reading mid-result until the statement
// is blocked on the full socket — holding its admission slot, as documented
// — and then hangs up: the blocked write fails and the statement unwinds.
func TestStalledReaderDisconnect(t *testing.T) {
	for _, dop := range []int{1, 2} {
		t.Run(fmt.Sprintf("dop%d", dop), func(t *testing.T) {
			env := newFaultEnv(t, dop)
			rc := dialRaw(t, env.srv.Addr().String())
			rc.startStream(faultBigQuery, 500)
			// Stalled: the plan root stops advancing though the statement
			// is far from done, and its slot stays taken.
			var seen float64
			stable := 0
			waitFor(t, "the statement to block on the unread socket", func() bool {
				act := env.eng.Lifecycle.Active()
				if len(act) != 1 {
					return false
				}
				if act[0].DoneRows == seen && seen > 0 {
					stable++
				} else {
					seen, stable = act[0].DoneRows, 0
				}
				return stable >= 25 // 50 ms without a row
			})
			t.Logf("stalled with %.0f rows through the plan's operators", seen)
			if _, _, active, _ := env.adm.Stats(); active != 1 {
				t.Fatalf("stalled statement holds %d admission slots, want 1", active)
			}
			rc.conn.Close()
			env.settled(t, "failed", true)
		})
	}
}
