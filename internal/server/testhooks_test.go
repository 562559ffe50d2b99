package server

import "fmt"

// Test-only hooks on the server's types: fault injection and the session
// count the disconnect tests wait on.

// Abort closes the connection without the Terminate goodbye — a simulated
// client crash, used by disconnect-mid-query tests.
func (c *Client) Abort() error { return c.conn.Close() }

// Kill forcibly terminates worker i, as the kill-a-worker-mid-query test
// needs. The process dies without any protocol goodbye, exactly like a
// crashed node.
func (p *WorkerProcs) Kill(i int) error {
	if i < 0 || i >= len(p.cmds) {
		return fmt.Errorf("no worker %d", i)
	}
	if err := p.cmds[i].Process.Kill(); err != nil {
		return err
	}
	p.cmds[i].Wait()
	return nil
}

// Sessions reports the number of currently open sessions.
func (s *Server) Sessions() int { return int(s.sessions.Load()) }
