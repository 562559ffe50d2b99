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
	"rqp/internal/workload"
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
	if err := WriteFrame(conn, MsgStartup, encode(StartupMsg{Version: 99})); err != nil {
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
	if err := WriteFrame(conn, MsgStartup, encode(StartupMsg{Version: ProtocolVersion})); err != nil {
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

// TestRetiredFramesRejected sends, after the handshake, each of protocol
// version 1's Prepare, Bind, Execute and Close, well formed, on its old type
// byte: the server answers ERR_PROTO and closes the connection.
func TestRetiredFramesRejected(t *testing.T) {
	env := newTestEnv(t, 0, 0, nil)
	for _, rf := range retiredFrames() {
		t.Run(rf.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", env.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := WriteFrame(conn, MsgStartup, encode(StartupMsg{Version: ProtocolVersion})); err != nil {
				t.Fatal(err)
			}
			if f, err := ReadFrame(conn, MaxFrame); err != nil || f.Type != MsgReady {
				t.Fatalf("handshake: %v %#x", err, f.Type)
			}
			if err := WriteFrame(conn, rf.typ, rf.payload); err != nil {
				t.Fatal(err)
			}
			f, err := ReadFrame(conn, MaxFrame)
			if err != nil || f.Type != MsgError {
				t.Fatalf("type %#x: got frame %#x, %v; want an Error frame", rf.typ, f.Type, err)
			}
			if m, _ := DecodeError(f.Payload); m.Code != CodeProto {
				t.Fatalf("type %#x: error %s, want %s", rf.typ, m.Code, CodeProto)
			}
			if f, err := ReadFrame(conn, MaxFrame); err == nil {
				t.Fatalf("type %#x: connection stayed open (next frame %#x)", rf.typ, f.Type)
			}
		})
	}
}

// TestReoptsOverWire checks that a statement POP re-plans reports the same
// re-plan count, rows and cost through the protocol as in process.
func TestReoptsOverWire(t *testing.T) {
	sc := workload.DefaultStar()
	sc.FactRows, sc.DimRows, sc.Dim2Rows = 4000, 1200, 500
	open := func() *core.Engine {
		cat, err := workload.BuildStar(sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Policy = core.PolicyPOP
		return core.Attach(cat, cfg)
	}
	local := open()
	srv := New(Config{Engine: open()})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, q := range workload.StarWorkload(sc, 20, 1.0, 7) {
		want, err := local.Exec(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if want.Reopts == 0 {
			continue
		}
		got, err := c.Query(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if got.Reopts != want.Reopts || got.CostUnits != want.Cost || fpRS(got) != fp(want) {
			t.Fatalf("%s\nover the wire: %d reopt(s), cost %v; in process: %d reopt(s), cost %v",
				q.SQL, got.Reopts, got.CostUnits, want.Reopts, want.Cost)
		}
		return
	}
	t.Fatal("the trapped star workload made POP re-plan no statement")
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

// TestAdmissionQueuedInLifecycle holds the only slot and checks that a
// queued SELECT is registered while it waits: /queries shows it in phase
// queued, not nothing.
func TestAdmissionQueuedInLifecycle(t *testing.T) {
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
	const q = "SELECT COUNT(*) FROM s"
	errc := make(chan error, 1)
	go func() {
		_, err := c2.Query(q)
		errc <- err
	}()
	waitFor(t, "the queued SELECT in the lifecycle registry", func() bool {
		for _, aq := range env.eng.Lifecycle.Active() {
			if aq.SQL == q && aq.Phase == "queued" {
				return true
			}
		}
		return false
	})
	adm.Done()
	if err := <-errc; err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
}

// TestAdmissionTimeoutRecordedOnce times a queued SELECT out and checks it
// is recorded exactly once: one completed query, rejected, and one
// rqp_wlm_rejected_total increment.
func TestAdmissionTimeoutRecordedOnce(t *testing.T) {
	env := newTestEnv(t, 1, 100*time.Millisecond, nil)
	adm := env.eng.Cfg.Admission
	if d := adm.TryAdmit(); !d.Admitted {
		t.Fatal("failed to occupy the gate slot")
	}
	defer adm.Done()
	rejected := env.eng.Metrics.Counter("rqp_wlm_rejected_total")
	before, recent := rejected.Value(), len(env.eng.Lifecycle.Recent())

	c2, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	const q = "SELECT COUNT(*) FROM s"
	if _, err := c2.Query(q); !isCode(err, CodeAdmit) {
		t.Fatalf("expected ERR_ADMIT, got %v", err)
	}
	if got := rejected.Value() - before; got != 1 {
		t.Fatalf("rqp_wlm_rejected_total rose by %d, want 1", got)
	}
	recs := env.eng.Lifecycle.Recent()[recent:]
	if len(recs) != 1 || recs[0].SQL != q || recs[0].Outcome != "rejected" {
		t.Fatalf("completed records %+v, want one rejected %q", recs, q)
	}
}

// TestAdmissionQueueCancel cancels a statement while it waits for the only
// slot: it ends with ERR_CANCELED long before the queue timeout, takes no
// slot, is not counted as rejected, and the session runs its next statement
// once the slot frees.
func TestAdmissionQueueCancel(t *testing.T) {
	env := newTestEnv(t, 1, time.Minute, nil)
	adm := env.eng.Cfg.Admission
	if d := adm.TryAdmit(); !d.Admitted {
		t.Fatal("failed to occupy the gate slot")
	}
	c2, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := c2.Query("SELECT COUNT(*) FROM s")
		errc <- err
	}()
	rejected := env.eng.Metrics.Counter("rqp_wlm_rejected_total")
	waitFor(t, "the SELECT to queue", func() bool { _, depth, _ := adm.QueueStats(); return depth == 1 })
	c2.Cancel()
	if err := <-errc; !isCode(err, CodeCanceled) {
		t.Fatalf("expected ERR_CANCELED, got %v", err)
	}
	if active := adm.Active(); active != 1 {
		t.Fatalf("active = %d after a canceled wait, want the 1 held slot", active)
	}
	if n := rejected.Value(); n != 0 {
		t.Fatalf("a canceled wait counted %d rejection(s), want 0", n)
	}
	adm.Done()
	if rs, err := c2.Query("SELECT COUNT(*) FROM s"); err != nil || rs.Rows[0][0].AsInt() != 50 {
		t.Fatalf("session after a canceled wait: %v, %v", rs, err)
	}
}

// TestAdmissionDMLDoesNotQueue holds the only slot: an INSERT takes no slot,
// so it completes at once, with no notice and no queued wait.
func TestAdmissionDMLDoesNotQueue(t *testing.T) {
	env := newTestEnv(t, 1, 2*time.Second, nil)
	adm := env.eng.Cfg.Admission
	if d := adm.TryAdmit(); !d.Admitted {
		t.Fatal("failed to occupy the gate slot")
	}
	defer adm.Done()
	c, err := Dial(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs, err := c.Query("INSERT INTO s VALUES (?, ?)", types.Int(50), types.Int(100))
	if err != nil {
		t.Fatalf("INSERT with the slot held: %v", err)
	}
	if rs.RowCount != 1 || len(rs.Notices) != 0 {
		t.Fatalf("INSERT affected %d row(s) with notices %v, want 1 and none", rs.RowCount, rs.Notices)
	}
	if queued, _, _ := adm.QueueStats(); queued != 0 {
		t.Fatalf("INSERT waited in the admission queue (%d queued waits)", queued)
	}
}

// TestConcurrentClientsStress runs 64 concurrent sessions against a 4-MPL
// gate, each issuing a mix of plain and parameterised statements (all 64
// share the parameterised ones through the plan cache). Every result
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

	// The admission gate's held slots, sampled while the clients run.
	peak, sampled := 0, make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			peak = max(peak, env.eng.Cfg.Admission.Active())
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
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
					rs, err := c.Query(queries[2], types.Int(int64(b)))
					if err != nil {
						errs <- err
						return
					}
					if fpRS(rs) != refs[fmt.Sprintf("%s|%d", queries[2], b)] {
						errs <- fmt.Errorf("client %d: wrong parameterised result for b=%d", id, b)
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
	close(stop)
	<-sampled
	close(errs)
	for err := range errs {
		t.Error(err)
	}

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
	t.Run("GoldenWireTranscript", TestGoldenWireTranscript)
	t.Run("ConcurrentClientsStress", TestConcurrentClientsStress)
	t.Run("CancelMidStream", TestCancelMidStreamKeepsSession)
}

// fp fingerprints an in-process result.
func fp(r *core.Result) string { return rowsFingerprint(r.Columns, r.Rows) }

// fpRS fingerprints a wire result.
func fpRS(r *ResultSet) string { return rowsFingerprint(r.Columns, r.Rows) }
