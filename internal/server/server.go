package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rqp/internal/core"
)

// Config parameterizes a Server.
type Config struct {
	// Engine is the database instance served over the wire. Its
	// Cfg.Admission gate (if any) is the server's admission control: at a
	// full gate a session's SELECT queues FIFO instead of failing.
	Engine *core.Engine
	// QueueTimeout bounds how long a session waits in the admission queue
	// before its statement fails with ERR_ADMIT (default 10s).
	QueueTimeout time.Duration
	// MaxFrame caps a frame payload in bytes (default MaxFrame, 1 MiB).
	MaxFrame int
	// BeforeExec, when non-nil, runs on the session goroutine immediately
	// before each statement goes to the engine — before it queues for an
	// admission slot, so it holds none — with the session's live cancel
	// predicate. It exists for tests that need to hold a statement
	// mid-flight deterministically (cancel and disconnect races); production
	// servers leave it nil.
	BeforeExec func(sessionID uint64, sql string, canceled func() bool)
}

// Server accepts wire-protocol connections and runs one session per
// connection against a shared engine.
type Server struct {
	listener
	cfg      Config // defaults filled in
	nextID   atomic.Uint64
	sessions atomic.Int64 // currently open sessions
}

// New builds a Server around an engine.
func New(cfg Config) *Server {
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 10 * time.Second
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = MaxFrame
	}
	return &Server{cfg: cfg}
}

// listener is the accept loop and connection registry a Server and a
// ShardWorker share: listen binds, serve runs each accepted connection on a
// goroutine of its own, close stops accepting, closes every live connection
// and waits for their goroutines.
type listener struct {
	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

func (l *listener) listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.ln = ln
	l.mu.Unlock()
	return nil
}

// addr is the bound address, nil before listen.
func (l *listener) addr() net.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ln == nil {
		return nil
	}
	return l.ln.Addr()
}

// serve accepts connections until close, when it returns nil, handing each
// to handle on its own goroutine.
func (l *listener) serve(handle func(net.Conn)) error {
	l.mu.Lock()
	ln := l.ln
	l.mu.Unlock()
	if ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			l.mu.Unlock()
			return err
		}
		if l.conns == nil {
			l.conns = make(map[net.Conn]struct{})
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.wg.Done()
			handle(conn)
			l.mu.Lock()
			delete(l.conns, conn)
			l.mu.Unlock()
		}()
	}
}

func (l *listener) close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	ln := l.ln
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	l.wg.Wait()
	return err
}

// Listen starts listening on addr (e.g. ":5433" or "127.0.0.1:0") without
// serving yet, so callers can read Addr before clients connect.
func (s *Server) Listen(addr string) error { return s.listen(addr) }

// Addr reports the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr { return s.addr() }

// Serve accepts connections until Close, when it returns nil. Call after
// Listen; it blocks.
func (s *Server) Serve() error { return s.serve(s.handle) }

// Close stops accepting and waits for in-flight sessions to finish their
// current command cycle (live connections are closed: session readers
// observe the dead conn and cancel their queries cooperatively).
func (s *Server) Close() error { return s.close() }

// handle runs one connection's session.
func (s *Server) handle(conn net.Conn) {
	s.sessions.Add(1)
	defer s.sessions.Add(-1)
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	sess := &session{
		id:     s.nextID.Add(1),
		srv:    s,
		conn:   conn,
		bw:     bufio.NewWriterSize(conn, 32<<10),
		frames: make(chan Frame),
		done:   make(chan struct{}),
	}
	sess.serve()
}
