package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Shard worker processes are spawned by re-execing the current binary with
// RQP_SHARD_WORKER set — the pattern that lets any rqp command (rqpbench,
// rqpregress, a test binary) double as its own worker fleet without a
// separate executable. The child binds an ephemeral loopback port, prints
// the address as its first stdout line (the parent's rendezvous), and
// serves exchanges until its stdin closes — tying worker lifetime to the
// parent so an interrupted bench never strands processes.

// shardWorkerEnv marks a process as a spawned shard worker.
const shardWorkerEnv = "RQP_SHARD_WORKER"

// shardWorkerMPLEnv carries the worker's per-process admission MPL
// (0/unset = unlimited).
const shardWorkerMPLEnv = "RQP_SHARD_WORKER_MPL"

// MaybeRunShardWorker checks whether this process was spawned as a shard
// worker and, if so, runs the worker loop and never returns (os.Exit).
// Call it first thing in main — and in TestMain for test binaries that
// spawn workers — before flag parsing or any other setup.
func MaybeRunShardWorker() {
	if os.Getenv(shardWorkerEnv) == "" {
		return
	}
	mpl, _ := strconv.Atoi(os.Getenv(shardWorkerMPLEnv)) // unset or malformed: 0, unlimited
	// Parent death (or stop) closes our stdin; stop with it.
	ctx, stop := context.WithCancel(context.Background())
	go func() {
		io.Copy(io.Discard, os.Stdin)
		stop()
	}()
	err := ServeShardWorker(ctx, "127.0.0.1:0", mpl, 0, func(addr string) {
		// The rendezvous: the parent reads the first line for the address.
		fmt.Println(addr)
		os.Stdout.Sync()
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// WorkerProcs is a fleet of spawned shard worker processes.
type WorkerProcs struct {
	Addrs []string
	cmds  []*exec.Cmd
	stdin []io.WriteCloser
}

// SpawnShardWorkers re-execs this binary n times as shard workers (MPL
// mpl each, 0 = unlimited) and waits for each to report its listen
// address. The caller must have MaybeRunShardWorker at the top of main.
func SpawnShardWorkers(n, mpl int) (*WorkerProcs, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs := &WorkerProcs{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			shardWorkerEnv+"=1",
			shardWorkerMPLEnv+"="+strconv.Itoa(mpl))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			procs.Stop()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			procs.Stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			procs.Stop()
			return nil, err
		}
		procs.cmds = append(procs.cmds, cmd)
		procs.stdin = append(procs.stdin, stdin)
		addr, err := readAddrLine(stdout, 10*time.Second)
		if err != nil {
			procs.Stop()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		procs.Addrs = append(procs.Addrs, addr)
	}
	return procs, nil
}

// readAddrLine reads the worker's first stdout line (its listen address)
// with a deadline, so a child that dies pre-listen fails the spawn instead
// of hanging it.
func readAddrLine(r io.Reader, timeout time.Duration) (string, error) {
	type res struct {
		line string
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		line, err := bufio.NewReader(r).ReadString('\n')
		ch <- res{strings.TrimSpace(line), err}
	}()
	select {
	case got := <-ch:
		if got.err != nil {
			return "", fmt.Errorf("reading worker address: %w", got.err)
		}
		if got.line == "" {
			return "", fmt.Errorf("worker reported empty address")
		}
		return got.line, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("timed out waiting for worker address")
	}
}

// Stop closes every worker's stdin (their exit signal) and reaps them.
func (p *WorkerProcs) Stop() {
	for _, in := range p.stdin {
		in.Close()
	}
	for _, cmd := range p.cmds {
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			c.Wait()
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	p.cmds, p.stdin, p.Addrs = nil, nil, nil
}
