package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/types"
	"rqp/internal/wlm"
)

// testEnv is one running server over a small two-table engine.
type testEnv struct {
	srv  *Server
	eng  *core.Engine
	addr string
}

// newTestEnv starts a server on a loopback port over a fresh engine with
// tables r(a,b) (200 rows) and s(a,c) (50 rows). mpl > 0 installs a WLM
// gate; hook is the optional BeforeExec test hook.
func newTestEnv(t *testing.T, mpl int, queueTimeout time.Duration, hook func(uint64, string, func() bool)) *testEnv {
	t.Helper()
	cfg := core.DefaultConfig()
	if mpl > 0 {
		cfg.Admission = wlm.NewAdmitter(mpl)
	}
	eng := core.Open(cfg)
	eng.Cache = core.NewPlanCache(0)
	eng.MustExec("CREATE TABLE r (a int, b int)")
	eng.MustExec("CREATE TABLE s (a int, c int)")
	for i := 0; i < 200; i++ {
		eng.MustExec("INSERT INTO r VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i%10)))
	}
	for i := 0; i < 50; i++ {
		eng.MustExec("INSERT INTO s VALUES (?, ?)", types.Int(int64(i)), types.Int(int64(i*2)))
	}
	srv := New(Config{Engine: eng, QueueTimeout: queueTimeout, BeforeExec: hook})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return &testEnv{srv: srv, eng: eng, addr: srv.Addr().String()}
}

// rowsFingerprint renders a result deterministically for equality checks.
func rowsFingerprint(cols []string, rows []types.Row) string {
	return fmt.Sprintf("%v|%v", cols, rows)
}

// TestQueryOverWire checks that a SELECT through the protocol returns
// exactly what the engine returns in-process — columns, rows, and cost.
func TestQueryOverWire(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.SessionID == 0 {
		t.Fatal("handshake did not assign a session id")
	}

	const q = "SELECT b, COUNT(*) FROM r GROUP BY b ORDER BY b"
	want := env.eng.MustExec(q)
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rowsFingerprint(got.Columns, got.Rows) != rowsFingerprint(want.Columns, want.Rows) {
		t.Fatalf("wire result differs from in-process result:\n got %v %v\nwant %v %v",
			got.Columns, got.Rows, want.Columns, want.Rows)
	}
	if got.Tag != "SELECT" || got.RowCount != uint64(len(want.Rows)) {
		t.Fatalf("complete: tag=%q rows=%d, want SELECT/%d", got.Tag, got.RowCount, len(want.Rows))
	}
	if got.CostUnits <= 0 {
		t.Fatal("expected positive cost units on the wire")
	}
}

// TestQueryParamsOverWire checks positional parameters of every kind.
func TestQueryParamsOverWire(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.Query("SELECT a FROM r WHERE b = ? AND a < ? ORDER BY a", types.Int(3), types.Int(100))
	if err != nil {
		t.Fatal(err)
	}
	want := env.eng.MustExec("SELECT a FROM r WHERE b = ? AND a < ? ORDER BY a", types.Int(3), types.Int(100))
	if rowsFingerprint(got.Columns, got.Rows) != rowsFingerprint(want.Columns, want.Rows) {
		t.Fatalf("parameterized result differs: got %v, want %v", got.Rows, want.Rows)
	}
}

// TestDMLOverWire checks INSERT through the protocol: OK tag and affected
// count, and the row is visible to a following SELECT.
func TestDMLOverWire(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rs, err := c.Query("INSERT INTO r VALUES (?, ?)", types.Int(9999), types.Int(77))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Tag != "OK" || rs.RowCount != 1 {
		t.Fatalf("insert: tag=%q rows=%d, want OK/1", rs.Tag, rs.RowCount)
	}
	sel, err := c.Query("SELECT b FROM r WHERE a = ?", types.Int(9999))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 1 || sel.Rows[0][0].I != 77 {
		t.Fatalf("inserted row not visible: %v", sel.Rows)
	}
}

// TestPreparedLifecycle walks Prepare → Bind → Execute → re-Bind →
// Execute → Close, including the statement-level error cases: unknown
// statement, Execute without portal, Close clearing the portal.
func TestPreparedLifecycle(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Execute before any Bind: ERR_NO_PORTAL, session stays usable.
	if _, err := c.Execute(0); !isCode(err, CodeNoPortal) {
		t.Fatalf("expected ERR_NO_PORTAL, got %v", err)
	}
	// Bind of an unknown name: ERR_UNKNOWN_STMT.
	if err := c.Bind("nope"); !isCode(err, CodeUnknownStmt) {
		t.Fatalf("expected ERR_UNKNOWN_STMT, got %v", err)
	}
	// Prepare with a parse error fails at prepare time.
	if err := c.Prepare("bad", "SELEKT zap"); !isCode(err, CodeParse) {
		t.Fatalf("expected ERR_PARSE, got %v", err)
	}

	parsed := env.eng.Cache.Stats().Parses
	if err := c.Prepare("byb", "SELECT a FROM r WHERE b = ? ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("byb", types.Int(4)); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Execute(0)
	if err != nil {
		t.Fatal(err)
	}
	want := env.eng.MustExec("SELECT a FROM r WHERE b = ? ORDER BY a", types.Int(4))
	if rowsFingerprint(rs.Columns, rs.Rows) != rowsFingerprint(want.Columns, want.Rows) {
		t.Fatalf("execute result differs: %v vs %v", rs.Rows, want.Rows)
	}

	// Re-bind with different params re-runs with the new values.
	if err := c.Bind("byb", types.Int(7)); err != nil {
		t.Fatal(err)
	}
	rs2, err := c.Execute(0)
	if err != nil {
		t.Fatal(err)
	}
	want2 := env.eng.MustExec("SELECT a FROM r WHERE b = ? ORDER BY a", types.Int(7))
	if rowsFingerprint(rs2.Columns, rs2.Rows) != rowsFingerprint(want2.Columns, want2.Rows) {
		t.Fatalf("re-bound execute differs: %v vs %v", rs2.Rows, want2.Rows)
	}

	// MaxRows caps the stream without failing the statement.
	if err := c.Bind("byb", types.Int(4)); err != nil {
		t.Fatal(err)
	}
	capped, err := c.Execute(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Rows) != 5 || capped.RowCount != 5 {
		t.Fatalf("row cap: got %d rows (count %d), want 5", len(capped.Rows), capped.RowCount)
	}

	// The statement was parsed once, at Prepare: the three Executes, the
	// in-process executions of the same text and a second session preparing
	// and running it all start from the statement in the engine's plan cache.
	c2, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Prepare("mine", "SELECT a FROM r WHERE b = ? ORDER BY a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Bind("mine", types.Int(7)); err != nil {
		t.Fatal(err)
	}
	if rs3, err := c2.Execute(0); err != nil || rowsFingerprint(rs3.Columns, rs3.Rows) != rowsFingerprint(want2.Columns, want2.Rows) {
		t.Fatalf("second session: %v, rows %v vs %v", err, rs3, want2.Rows)
	}
	st := env.eng.Cache.Stats()
	if got := st.Parses - parsed; got != 1 || env.eng.Cache.Len() != 1 {
		t.Fatalf("statement parsed %d times for two Prepares and six executions; %d statements cached", got, env.eng.Cache.Len())
	}
	if st.Misses != 1 || st.Hits != 5 {
		t.Fatalf("plan cache over six executions of one unique-selectivity statement: %+v", st)
	}

	// Close deallocates and clears the portal.
	if err := c.CloseStmt("byb"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(0); !isCode(err, CodeNoPortal) {
		t.Fatalf("expected ERR_NO_PORTAL after Close, got %v", err)
	}
	if err := c.CloseStmt("byb"); !isCode(err, CodeUnknownStmt) {
		t.Fatalf("expected ERR_UNKNOWN_STMT on double Close, got %v", err)
	}
}

// TestStatementErrorKeepsSession checks that an execution error is
// statement-scoped: the next statement on the same session succeeds.
func TestStatementErrorKeepsSession(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("SELECT nope FROM missing_table"); err == nil {
		t.Fatal("expected an error for a bad query")
	}
	rs, err := c.Query("SELECT COUNT(*) FROM r")
	if err != nil {
		t.Fatalf("session unusable after statement error: %v", err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].AsInt() != 200 {
		t.Fatalf("unexpected count result: %v", rs.Rows)
	}
}

// TestBadVersionRejected checks the handshake version gate.
func TestBadVersionRejected(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	conn, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgStartup, StartupMsg{Version: 99}.Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(conn, MaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgError {
		t.Fatalf("expected Error frame, got %#x", f.Type)
	}
	m, err := DecodeError(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if m.Code != CodeProto {
		t.Fatalf("expected %s, got %s", CodeProto, m.Code)
	}
}

// TestMalformedFrameClosesConnection checks that a framing violation after
// the handshake is fatal: error frame, then EOF.
func TestMalformedFrameClosesConnection(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	conn, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, MsgStartup, StartupMsg{Version: ProtocolVersion}.Encode()); err != nil {
		t.Fatal(err)
	}
	if f, err := ReadFrame(conn, MaxFrame); err != nil || f.Type != MsgReady {
		t.Fatalf("handshake: %v %#x", err, f.Type)
	}
	// A frame with a length prefix beyond the server's cap.
	var hdr [5]byte
	hdr[0] = MsgQuery
	binary.BigEndian.PutUint32(hdr[1:], uint32(MaxFrame+1))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	conn.SetReadDeadline(deadline)
	sawError := false
	for {
		f, err := ReadFrame(conn, MaxFrame)
		if err != nil {
			break // connection closed by server
		}
		if f.Type == MsgError {
			m, _ := DecodeError(f.Payload)
			if m.Code != CodeProto {
				t.Fatalf("expected %s, got %s", CodeProto, m.Code)
			}
			sawError = true
		}
	}
	if !sawError {
		t.Fatal("server closed without a protocol error frame")
	}
}

// isCode reports whether err is a ServerError with the given code.
func isCode(err error, code string) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Code == code
}

// TestCancelMidQuery holds a statement at the BeforeExec hook, cancels it
// from another goroutine, and expects ERR_CANCELED — with the session still
// usable afterwards. The hook waits for the cancel flag, so the test is
// deterministic: the statement cannot start executing before the cancel
// lands.
func TestCancelMidQuery(t *testing.T) {
	started := make(chan struct{}, 1)
	hook := func(id uint64, sqlText string, canceled func() bool) {
		if sqlText != "SELECT COUNT(*) FROM r" {
			return
		}
		started <- struct{}{}
		for !canceled() {
			time.Sleep(time.Millisecond)
		}
	}
	env := newTestEnv(t, 0, 0, hook)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go func() {
		<-started
		c.Cancel()
	}()
	_, err = c.Query("SELECT COUNT(*) FROM r")
	if !isCode(err, CodeCanceled) {
		t.Fatalf("expected ERR_CANCELED, got %v", err)
	}

	// The cancel must not bleed into the next statement.
	rs, err := c.Query("SELECT COUNT(*) FROM s")
	if err != nil {
		t.Fatalf("session unusable after cancel: %v", err)
	}
	if rs.Rows[0][0].AsInt() != 50 {
		t.Fatalf("unexpected result after cancel: %v", rs.Rows)
	}
}

// TestDisconnectMidQuery crashes the client (no Terminate) while its
// statement is held at the hook: the server must notice, cancel the query,
// and tear the session down rather than running it for nobody.
func TestDisconnectMidQuery(t *testing.T) {
	started := make(chan struct{}, 1)
	aborted := make(chan struct{}, 1)
	hook := func(id uint64, sqlText string, canceled func() bool) {
		if sqlText != "SELECT COUNT(*) FROM r" {
			return
		}
		started <- struct{}{}
		for !canceled() {
			time.Sleep(time.Millisecond)
		}
		aborted <- struct{}{}
	}
	env := newTestEnv(t, 0, 0, hook)
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 1)
	go func() {
		_, err := c.Query("SELECT COUNT(*) FROM r")
		errc <- err
	}()
	<-started
	c.Abort()
	if err := <-errc; err == nil {
		t.Fatal("query against a closed connection should fail client-side")
	}
	select {
	case <-aborted:
		// Server-side cancel observed the dead connection.
	case <-time.After(5 * time.Second):
		t.Fatal("server never canceled the disconnected client's query")
	}
	// Session teardown completes.
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session count stuck at %d after disconnect", env.srv.Sessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionQueueNotices occupies the only gate slot, then checks a
// queued client receives WLM_QUEUED while waiting and WLM_ADMITTED when the
// slot frees — protocol-visible backpressure. The slot is held directly via
// TryAdmit (not a competing query), which makes the schedule deterministic.
func TestAdmissionQueueNotices(t *testing.T) {
	env := newTestEnv(t, 1, 10*time.Second, nil)
	adm := env.eng.Cfg.Admission
	if d := adm.TryAdmit(); !d.Admitted {
		t.Fatal("failed to occupy the gate slot")
	}

	c2, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	done2 := make(chan *ResultSet, 1)
	go func() {
		rs, err := c2.Query("SELECT COUNT(*) FROM s")
		if err != nil {
			t.Errorf("queued query failed: %v", err)
		}
		done2 <- rs
	}()

	// c2 must be parked in the queue, not running: poll the gate's stats.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, depth, _ := adm.QueueStats(); depth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second query never queued")
		}
		time.Sleep(time.Millisecond)
	}

	adm.Done() // free the slot; the parked session wakes FIFO
	rs := <-done2
	var sawQueued, sawAdmitted bool
	for _, n := range rs.Notices {
		switch n.Code {
		case NoticeQueued:
			sawQueued = true
		case NoticeAdmitted:
			sawAdmitted = true
		}
	}
	if !sawQueued || !sawAdmitted {
		t.Fatalf("expected WLM_QUEUED and WLM_ADMITTED notices, got %v", rs.Notices)
	}
	if rs.Rows[0][0].AsInt() != 50 {
		t.Fatalf("queued query returned wrong result: %v", rs.Rows)
	}
}

// TestAdmissionQueueTimeout holds the only slot past a short queue timeout:
// the queued statement must fail with ERR_ADMIT and the session survive.
func TestAdmissionQueueTimeout(t *testing.T) {
	env := newTestEnv(t, 1, 150*time.Millisecond, nil)
	adm := env.eng.Cfg.Admission
	if d := adm.TryAdmit(); !d.Admitted {
		t.Fatal("failed to occupy the gate slot")
	}

	c2, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	if _, err := c2.Query("SELECT COUNT(*) FROM s"); !isCode(err, CodeAdmit) {
		t.Fatalf("expected ERR_ADMIT, got %v", err)
	}
	adm.Done()

	// The timed-out session is still usable once the gate has room.
	rs, err := c2.Query("SELECT COUNT(*) FROM s")
	if err != nil {
		t.Fatalf("session unusable after queue timeout: %v", err)
	}
	if rs.Rows[0][0].AsInt() != 50 {
		t.Fatalf("unexpected result: %v", rs.Rows)
	}
}

// TestConcurrentClientsStress runs 64 concurrent sessions against a 4-MPL
// gate, each issuing a mix of plain and prepared statements. Every result
// must match the single-session reference exactly (zero incorrect results
// under load is the E29 acceptance bar), the gate's peak concurrency must
// respect the MPL, and the notices observed must be consistent.
func TestConcurrentClientsStress(t *testing.T) {
	const (
		clients          = 64
		mpl              = 4
		queriesPerClient = 6
	)
	env := newTestEnv(t, mpl, 30*time.Second, nil)

	queries := []string{
		"SELECT b, COUNT(*) FROM r GROUP BY b ORDER BY b",
		"SELECT COUNT(*) FROM r",
		"SELECT a FROM r WHERE b = ? ORDER BY a",
		"SELECT r.a FROM r, s WHERE r.a = s.a AND s.c < ? ORDER BY r.a",
	}
	// Reference results computed in-process before any load.
	refs := make(map[string]string)
	refs[queries[0]] = fp(env.eng.MustExec(queries[0]))
	refs[queries[1]] = fp(env.eng.MustExec(queries[1]))
	for b := 0; b < 10; b++ {
		k := fmt.Sprintf("%s|%d", queries[2], b)
		refs[k] = fp(env.eng.MustExec(queries[2], types.Int(int64(b))))
	}
	for c := 0; c < 8; c++ {
		k := fmt.Sprintf("%s|%d", queries[3], c*10)
		refs[k] = fp(env.eng.MustExec(queries[3], types.Int(int64(c*10))))
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*queriesPerClient)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(env.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			stmt := fmt.Sprintf("st%d", id)
			if err := c.Prepare(stmt, queries[2]); err != nil {
				errs <- err
				return
			}
			for q := 0; q < queriesPerClient; q++ {
				switch q % 4 {
				case 0:
					rs, err := c.Query(queries[0])
					if err != nil {
						errs <- err
						return
					}
					if fpRS(rs) != refs[queries[0]] {
						errs <- fmt.Errorf("client %d: wrong result for %q", id, queries[0])
						return
					}
				case 1:
					rs, err := c.Query(queries[1])
					if err != nil {
						errs <- err
						return
					}
					if fpRS(rs) != refs[queries[1]] {
						errs <- fmt.Errorf("client %d: wrong count result", id)
						return
					}
				case 2:
					b := (id + q) % 10
					if err := c.Bind(stmt, types.Int(int64(b))); err != nil {
						errs <- err
						return
					}
					rs, err := c.Execute(0)
					if err != nil {
						errs <- err
						return
					}
					if fpRS(rs) != refs[fmt.Sprintf("%s|%d", queries[2], b)] {
						errs <- fmt.Errorf("client %d: wrong prepared result for b=%d", id, b)
						return
					}
				case 3:
					cv := ((id + q) % 8) * 10
					rs, err := c.Query(queries[3], types.Int(int64(cv)))
					if err != nil {
						errs <- err
						return
					}
					if fpRS(rs) != refs[fmt.Sprintf("%s|%d", queries[3], cv)] {
						errs <- fmt.Errorf("client %d: wrong join result for c<%d", id, cv)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	_, _, _, peak := env.eng.Cfg.Admission.Stats()
	if peak > mpl {
		t.Fatalf("admission peak %d exceeded MPL %d", peak, mpl)
	}
	queued, depth, qpeak := env.eng.Cfg.Admission.QueueStats()
	if depth != 0 {
		t.Fatalf("queue not drained: depth %d", depth)
	}
	t.Logf("stress: peak concurrency %d/%d, %d queued waits, queue peak %d", peak, mpl, queued, qpeak)
}

// TestRowLifetimeSessions re-runs the session tests under the row-lifetime
// harness: every operator overwrites the row it returned as soon as it is
// pulled again, so a result stream that encoded a row any later than
// before the next Next would put sentinels on the wire and fail the
// comparisons with the in-process results and the golden transcript.
func TestRowLifetimeSessions(t *testing.T) {
	exec.SetRowPoison(true)
	defer exec.SetRowPoison(false)
	t.Run("QueryOverWire", TestQueryOverWire)
	t.Run("QueryParamsOverWire", TestQueryParamsOverWire)
	t.Run("DMLOverWire", TestDMLOverWire)
	t.Run("PreparedLifecycle", TestPreparedLifecycle)
	t.Run("GoldenWireTranscript", TestGoldenWireTranscript)
	t.Run("ConcurrentClientsStress", TestConcurrentClientsStress)
	t.Run("CancelMidStream", TestCancelMidStreamKeepsSession)
}

// fp fingerprints an in-process result.
func fp(r *core.Result) string { return rowsFingerprint(r.Columns, r.Rows) }

// fpRS fingerprints a wire result.
func fpRS(r *ResultSet) string { return rowsFingerprint(r.Columns, r.Rows) }
