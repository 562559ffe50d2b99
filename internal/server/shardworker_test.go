package server

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestServeShardWorker starts a worker the way rqpserver -shard-worker and
// a spawned worker process do: it listens on an ephemeral loopback port,
// announces the address, accepts a connection there, and returns nil once
// its context is canceled, with the port closed.
func TestServeShardWorker(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	announced := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- ServeShardWorker(ctx, "127.0.0.1:0", 2, time.Second, func(addr string) { announced <- addr })
	}()
	var addr string
	select {
	case addr = <-announced:
	case err := <-done:
		t.Fatalf("returned %v before announcing an address", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	conn.Close()
	stop()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stopped worker returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not stop")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Errorf("%s still accepts after the worker stopped", addr)
	}

	called := false
	if err := ServeShardWorker(context.Background(), "127.0.0.1:-1", 0, 0, func(string) { called = true }); err == nil || called {
		t.Errorf("bad address: error %v, announced %v; want an error and no announcement", err, called)
	}
}
