package server

import (
	"bufio"
	"bytes"
	"errors"
	"testing"

	"rqp/internal/types"
)

// cycleStream renders one command cycle: RowDesc, the rows, then Complete —
// or, with fail set, an Error — and Ready.
func cycleStream(t testing.TB, cols []string, rows []types.Row, fail bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	send := func(typ byte, m Encoder) {
		if err := WriteMsg(&buf, typ, m); err != nil {
			t.Fatal(err)
		}
	}
	send(MsgRowDesc, RowDescMsg{Columns: cols})
	for _, r := range rows {
		send(MsgRow, RowMsg{Values: r})
	}
	if fail {
		send(MsgError, ErrorMsg{Code: CodeExec, Message: "boom"})
	} else {
		send(MsgComplete, CompleteMsg{Tag: "SELECT", Rows: uint64(len(rows))})
	}
	send(MsgReady, ReadyMsg{SessionID: 1, Status: 'I'})
	return buf.Bytes()
}

func readCycleOf(stream []byte) (*ResultSet, error) {
	c := &Client{br: bufio.NewReader(bytes.NewReader(stream))}
	return c.readCycle()
}

func cycleRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.Int(int64(i)), types.Str("v"), types.Float(float64(i) / 2), types.Null()}
	}
	return rows
}

// clientCycleAllocs is what readCycle allocated for a result of 0 to 12
// four-value rows when it appended every decoded row to ResultSet.Rows (the
// reader, the frame buffer, the result, the column names, the arena chunks
// and the regrown index): the row set may not cost a small result more.
var clientCycleAllocs = [13]float64{9, 11, 13, 15, 15, 17, 17, 17, 17, 19, 19, 19, 19}

// TestClientResultCutOnce: the client keeps a result's rows back to back and
// cuts ResultSet.Rows once, at Ready, at its exact size — for results of any
// size, for rows of no columns, and for the rows that preceded an Error.
func TestClientResultCutOnce(t *testing.T) {
	cols := []string{"a", "b", "c", "d"}
	for _, n := range []int{0, 1, 2, 3, 5, 12, 13, 700, 5000} {
		want := cycleRows(n)
		rs, err := readCycleOf(cycleStream(t, cols, want, false))
		if err != nil {
			t.Fatalf("%d rows: %v", n, err)
		}
		if len(rs.Rows) != n || cap(rs.Rows) != n || rs.RowCount != uint64(n) {
			t.Fatalf("%d rows: got %d (cap %d), RowCount %d", n, len(rs.Rows), cap(rs.Rows), rs.RowCount)
		}
		for i, r := range rs.Rows {
			if r.String() != want[i].String() || cap(r) != len(r) {
				t.Fatalf("%d rows: row %d is %v (cap %d), want %v", n, i, r, cap(r), want[i])
			}
		}
	}
	for n := range clientCycleAllocs {
		stream := cycleStream(t, cols, cycleRows(n), false)
		got := testing.AllocsPerRun(20, func() {
			if rs, err := readCycleOf(stream); err != nil || len(rs.Rows) != n {
				t.Fatalf("%d rows: %d, %v", n, len(rs.Rows), err)
			}
		})
		if got > clientCycleAllocs[n] {
			t.Errorf("%d-row result: %.0f allocations, %.0f with the appended index", n, got, clientCycleAllocs[n])
		}
	}

	// Rows of no values are still rows.
	rs, err := readCycleOf(cycleStream(t, nil, make([]types.Row, 3), false))
	if err != nil || len(rs.Rows) != 3 || len(rs.Rows[0]) != 0 {
		t.Errorf("zero-column result: %d rows, %v", len(rs.Rows), err)
	}

	// An Error after some rows: they come back beside it, cut the same way.
	rs, err = readCycleOf(cycleStream(t, cols, cycleRows(7), true))
	var srv *ServerError
	if !errors.As(err, &srv) || srv.Code != CodeExec {
		t.Fatalf("want the statement error, got %v", err)
	}
	if rs == nil || len(rs.Rows) != 7 || cap(rs.Rows) != 7 || rs.Rows[6][0].I != 6 {
		t.Errorf("rows before the error: %+v", rs)
	}

	// A row is one value per RowDesc column; anything else is refused, not cut
	// at the wrong width.
	bad := append(cycleRows(2), types.Row{types.Int(1)})
	if _, err := readCycleOf(cycleStream(t, cols, bad, false)); !errors.Is(err, ErrProto) {
		t.Errorf("a 1-value row in a 4-column result: %v, want a protocol error", err)
	}
}
