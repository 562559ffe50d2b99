package server

import (
	"os"
	"sync"
	"testing"
	"time"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/plan"
	"rqp/internal/wlm"
)

// TestMain lets this test binary double as its own shard worker fleet: a
// spawned copy sees RQP_SHARD_WORKER and runs the worker loop instead of
// the tests.
func TestMain(m *testing.M) {
	MaybeRunShardWorker()
	os.Exit(m.Run())
}

// startShardServer attaches a server to a shard-join catalog with a real
// multi-process worker fleet behind the net shuffle transport.
func startShardServer(t *testing.T, procs *WorkerProcs, shards, mpl int) (*Server, *wlm.Admitter) {
	t.Helper()
	cat := netShufCatalog(t, 0)
	admit := wlm.NewAdmitter(mpl)
	eng := core.Attach(cat, core.Config{
		Policy: core.PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16,
		Shards: shards, ShuffleForce: plan.ShuffleRepartition,
		ShuffleTransport: NewNetShuffleTransport(procs.Addrs),
		Admission:        admit,
	})
	srv := New(Config{Engine: eng})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, admit
}

// queryWithDeadline runs one client query, failing the test if it does not
// return (either way) within the deadline — the no-hang guarantee.
func queryWithDeadline(t *testing.T, c *Client, q string, d time.Duration) (*ResultSet, error) {
	t.Helper()
	type res struct {
		rs  *ResultSet
		err error
	}
	ch := make(chan res, 1)
	go func() {
		rs, err := c.Query(q)
		ch <- res{rs, err}
	}()
	select {
	case got := <-ch:
		return got.rs, got.err
	case <-time.After(d):
		t.Fatalf("query %q did not return within %v", q, d)
		return nil, nil
	}
}

// TestKillWorkerMidQuery is the fault-injection acceptance test: a worker
// process dies (SIGKILL, no protocol goodbye) while a query's exchange is
// in flight. The query must fail promptly with a clean ERR_EXEC — no hang,
// no partial rows — the session must survive, and the admission slot must
// come back so the next query runs.
func TestKillWorkerMidQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	procs, err := SpawnShardWorkers(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer procs.Stop()
	srv, admit := startShardServer(t, procs, 4, 1)

	// The shard-start hook fires in each probe-routing goroutine — after the
	// exchange has dialed and the build side is on the wire — so killing a
	// worker here lands mid-exchange, past the point where the coordinator
	// could still fall back to the local path.
	var kill sync.Once
	exec.SetShardStartHook(func(shard int) {
		kill.Do(func() {
			if err := procs.Kill(1); err != nil {
				t.Errorf("kill worker: %v", err)
			}
		})
	})
	defer exec.SetShardStartHook(nil)

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const q = "SELECT COUNT(*), SUM(pt.pval) FROM pt, bt WHERE pt.k = bt.k"
	rs, err := queryWithDeadline(t, c, q, 30*time.Second)
	if err == nil {
		t.Fatalf("query survived a dead worker: %d rows", len(rs.Rows))
	}
	if !isCode(err, CodeExec) {
		t.Fatalf("expected %s, got %v", CodeExec, err)
	}
	exec.SetShardStartHook(nil)

	// The failed query must have released its admission slot (mpl=1: a leak
	// would wedge the session forever). The retry dials the dead peer, falls
	// back to the local exchange pre-routing, and still answers correctly.
	rs, err = queryWithDeadline(t, c, q, 30*time.Second)
	if err != nil {
		t.Fatalf("session did not recover after worker death: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("recovery query returned %d rows, want 1", len(rs.Rows))
	}
	if _, rejected, active, _ := admit.Stats(); active != 0 || rejected != 0 {
		t.Fatalf("admission gate dirty after recovery: active=%d rejected=%d", active, rejected)
	}
}

// TestDisconnectAbortsShuffle pins the one-cancellation-path satellite: a
// client disconnect mid-shuffle flips the same cancel flag the exchange
// watchdog polls, so the TCP exchange aborts, the workers' read loops end,
// and the coordinator's admission slot frees — with every worker process
// still healthy for the next query.
func TestDisconnectAbortsShuffle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	procs, err := SpawnShardWorkers(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer procs.Stop()
	srv, admit := startShardServer(t, procs, 4, 1)

	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Sever the client as soon as the exchange is live, then stall the
	// probe routing long enough for the session's dead-connection sweep to
	// flip the cancel flag the watchdog shares.
	var drop sync.Once
	exec.SetShardStartHook(func(shard int) {
		drop.Do(func() { c.Abort() })
		time.Sleep(150 * time.Millisecond)
	})
	defer exec.SetShardStartHook(nil)

	const q = "SELECT COUNT(*), SUM(pt.pval) FROM pt, bt WHERE pt.k = bt.k"
	if _, err := c.Query(q); err == nil {
		t.Fatal("query on an aborted connection should fail client-side")
	}

	// The abandoned query must wind down on its own: slot back, no hang.
	// Only then is it safe to clear the hook (the server-side shards may
	// still be inside it while the slot is held).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, active, _ := admit.Stats(); active == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, _, active, _ := admit.Stats()
			t.Fatalf("disconnected query still holds %d admission slot(s)", active)
		}
		time.Sleep(10 * time.Millisecond)
	}
	exec.SetShardStartHook(nil)

	// Every worker survived the abort and serves the next client.
	c2, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rs, err := queryWithDeadline(t, c2, q, 30*time.Second)
	if err != nil {
		t.Fatalf("fleet unusable after aborted shuffle: %v", err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("post-abort query returned %d rows, want 1", len(rs.Rows))
	}
}
