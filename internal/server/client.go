package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"rqp/internal/exec"
	"rqp/internal/types"
)

// Client is a minimal wire-protocol client: synchronous command cycles plus
// an out-of-band Cancel that may be called from another goroutine while a
// Query/Execute is in flight. It exists for rqpsh -connect, the closed-loop
// load generator, and the protocol tests; it is also the reference
// implementation for docs/WIRE_PROTOCOL.md.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	// hdr and buf are the frame reader's scratch: the header, and the
	// payload buffer every frame of every command cycle is read into. A
	// frame's payload is therefore valid only until the next read; the
	// decoders copy what they keep. Touched by the command goroutine only.
	hdr [frameHeaderLen]byte
	buf []byte

	// wmu serializes writers: the command goroutine and an out-of-band
	// Cancel may race on the socket.
	wmu sync.Mutex

	// SessionID is assigned by the server's first Ready frame.
	SessionID uint64
}

// ResultSet is one statement's decoded outcome.
type ResultSet struct {
	Columns   []string
	Rows      []types.Row
	Tag       string
	RowCount  uint64
	CostUnits float64
	// Notices are the advisories received during this command cycle —
	// WLM_QUEUED / WLM_ADMITTED backpressure signals, in arrival order.
	Notices []NoticeMsg
}

// ServerError is a statement- or protocol-level error frame surfaced as a
// Go error. Code holds the stable machine-readable error code.
type ServerError struct {
	Code    string
	Message string
}

// Error renders the code and message.
func (e *ServerError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Dial connects, performs the startup handshake, and waits for Ready.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}
	if err := c.write(MsgStartup, StartupMsg{Version: ProtocolVersion}); err != nil {
		conn.Close()
		return nil, err
	}
	f, err := c.readFrame()
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch f.Type {
	case MsgReady:
		m, err := DecodeReady(f.Payload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		c.SessionID = m.SessionID
		return c, nil
	case MsgError:
		m, _ := DecodeError(f.Payload)
		conn.Close()
		return nil, &ServerError{Code: m.Code, Message: m.Message}
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: unexpected handshake frame 0x%02x", ErrProto, f.Type)
	}
}

// Close terminates the session (best effort) and closes the connection.
func (c *Client) Close() error {
	c.write(MsgTerminate, nil)
	return c.conn.Close()
}

// Abort closes the connection without the Terminate goodbye — a simulated
// client crash, used by disconnect-mid-query tests.
func (c *Client) Abort() error { return c.conn.Close() }

// Query runs one SQL statement with optional positional parameters and
// collects the full result.
func (c *Client) Query(sql string, params ...types.Value) (*ResultSet, error) {
	if err := c.write(MsgQuery, QueryMsg{SQL: sql, Params: params}); err != nil {
		return nil, err
	}
	return c.readCycle()
}

// Prepare names a statement on the server.
func (c *Client) Prepare(name, sql string) error {
	if err := c.write(MsgPrepare, PrepareMsg{Name: name, SQL: sql}); err != nil {
		return err
	}
	_, err := c.readCycle()
	return err
}

// Bind attaches parameters to a prepared statement, making it the portal.
func (c *Client) Bind(name string, params ...types.Value) error {
	if err := c.write(MsgBind, BindMsg{Name: name, Params: params}); err != nil {
		return err
	}
	_, err := c.readCycle()
	return err
}

// Execute runs the bound portal. maxRows caps returned rows (0 = all).
func (c *Client) Execute(maxRows uint32) (*ResultSet, error) {
	if err := c.write(MsgExecute, ExecuteMsg{MaxRows: maxRows}); err != nil {
		return nil, err
	}
	return c.readCycle()
}

// CloseStmt deallocates a prepared statement.
func (c *Client) CloseStmt(name string) error {
	if err := c.write(MsgClose, CloseMsg{Name: name}); err != nil {
		return err
	}
	_, err := c.readCycle()
	return err
}

// Cancel requests best-effort cancellation of the in-flight statement. Safe
// to call concurrently with a blocked Query/Execute; the canceled statement
// fails with an ERR_CANCELED ServerError.
func (c *Client) Cancel() error {
	return c.write(MsgCancel, nil)
}

// write sends one frame (m nil: an empty payload) under the write lock.
func (c *Client) write(typ byte, m Encoder) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteMsg(c.conn, typ, m)
}

// readFrame reads the next frame into the client's reusable buffer, which
// grows geometrically to the largest frame seen (an outsized one is not
// kept). The payload is valid until the next readFrame.
func (c *Client) readFrame() (Frame, error) {
	typ, n, err := readFrameHeader(c.br, MaxFrame, &c.hdr)
	if err != nil {
		return Frame{}, err
	}
	p := c.buf
	if n > cap(p) {
		p = make([]byte, n, max(n, 2*cap(p)))
		if cap(p) <= maxPooledEncodeBuf {
			c.buf = p
		}
	}
	p = p[:n]
	if err := readFramePayload(c.br, p); err != nil {
		return Frame{}, err
	}
	return Frame{Type: typ, Payload: p}, nil
}

// readCycle consumes frames until Ready, assembling the result. A command
// cycle is: [Notice*] [RowDesc Row*] (Complete | Error) [Notice*] Ready.
// Rows are decoded back to back into one row set per result and their index
// is cut once, at Ready, at its exact size: a result costs an allocation per
// few hundred rows and no regrown []Row. Rows that arrived before an Error
// come back with it.
func (c *Client) readCycle() (*ResultSet, error) {
	rs := &ResultSet{}
	var rows exec.RowSet
	var srvErr *ServerError
	for {
		f, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case MsgNotice:
			m, err := DecodeNotice(f.Payload)
			if err != nil {
				return nil, err
			}
			rs.Notices = append(rs.Notices, m)
		case MsgRowDesc:
			m, err := DecodeRowDesc(f.Payload)
			if err != nil {
				return nil, err
			}
			rs.Columns = m.Columns
		case MsgRow:
			if err := decodeRowInto(f.Payload, &rows, len(rs.Columns)); err != nil {
				return nil, err
			}
		case MsgComplete:
			m, err := DecodeComplete(f.Payload)
			if err != nil {
				return nil, err
			}
			rs.Tag, rs.RowCount, rs.CostUnits = m.Tag, m.Rows, m.CostUnits
		case MsgError:
			m, err := DecodeError(f.Payload)
			if err != nil {
				return nil, err
			}
			srvErr = &ServerError{Code: m.Code, Message: m.Message}
			if m.Code == CodeProto {
				// Protocol errors are fatal: the server closes the connection
				// and no Ready follows.
				return nil, srvErr
			}
		case MsgReady:
			rs.Rows = rows.Rows()
			if srvErr != nil {
				return rs, srvErr
			}
			return rs, nil
		default:
			return nil, fmt.Errorf("%w: unexpected frame 0x%02x in command cycle", ErrProto, f.Type)
		}
	}
}
