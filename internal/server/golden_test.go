package server

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rqp/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_transcript.golden from this build")

// goldenStep is one scripted command cycle: the frames the client sends and
// the name the transcript records them under.
type goldenStep struct {
	name   string
	frames []goldenFrame
}

type goldenFrame struct {
	typ     byte
	payload []byte
}

func goldenQuery(sql string, params ...types.Value) []goldenFrame {
	return []goldenFrame{{MsgQuery, encode(QueryMsg{SQL: sql, Params: params})}}
}

// goldenScript is the session whose server-to-client byte stream is pinned:
// every statement shape the result path treats differently, over a table
// holding every value kind.
func goldenScript() []goldenStep {
	return []goldenStep{
		{"create table", goldenQuery("CREATE TABLE g (i int, f float, s string, b bool, d date)")},
		{"insert every kind", goldenQuery("INSERT INTO g VALUES (?, ?, ?, ?, ?)",
			types.Int(-7), types.Float(2.5), types.Str("héllo, wire"), types.Bool(true), types.Date(19000))},
		{"insert short string", goldenQuery("INSERT INTO g VALUES (?, ?, ?, ?, ?)",
			types.Int(1<<40), types.Float(-0.125), types.Str("A"), types.Bool(false), types.Date(0))},
		{"insert nulls", goldenQuery("INSERT INTO g VALUES (?, ?, ?, ?, ?)",
			types.Int(3), types.Null(), types.Str(""), types.Null(), types.Null())},
		{"select every kind", goldenQuery("SELECT i, f, s, b, d FROM g ORDER BY i")},
		{"select rows", goldenQuery("SELECT a, b FROM r WHERE a < ? ORDER BY a", types.Int(12))},
		{"select join", goldenQuery("SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND s.c < 20 ORDER BY r.a")},
		{"select aggregate", goldenQuery("SELECT b, COUNT(*), SUM(a) FROM r GROUP BY b ORDER BY b")},
		{"select zero rows", goldenQuery("SELECT a, b FROM r WHERE a < 0")},
		{"explain", goldenQuery("EXPLAIN SELECT a FROM r WHERE b = 3")},
		{"explain analyze", goldenQuery("EXPLAIN ANALYZE SELECT a FROM r WHERE b = 3")},
		{"update", goldenQuery("UPDATE r SET b = 99 WHERE a = 5")},
		{"delete", goldenQuery("DELETE FROM r WHERE a >= 190")},
		{"delete nothing", goldenQuery("DELETE FROM r WHERE a < 0")},
		{"parse error", goldenQuery("SELEKT zap")},
		{"bind error", goldenQuery("SELECT nope FROM missing_table")},
	}
}

// TestGoldenWireTranscript replays goldenScript on a raw connection and
// compares every byte the server sends with the transcript captured before
// results were streamed: frame types, order, payload encoding, row counts
// and cost units may not move. Run with -update-golden to re-capture.
func TestGoldenWireTranscript(t *testing.T) {
	env := newTestEnv(t, 2, 0, nil)
	conn, err := net.Dial("tcp", env.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	var got bytes.Buffer
	cycle := func(name string, frames []goldenFrame) []Frame {
		for _, f := range frames {
			if err := WriteFrame(conn, f.typ, f.payload); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		fmt.Fprintf(&got, "# %s\n", name)
		var out []Frame
		for {
			f, err := ReadFrame(conn, MaxFrame)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintf(&got, "%02x %08x %x\n", f.Type, len(f.Payload), f.Payload)
			out = append(out, f)
			if f.Type == MsgReady {
				return out
			}
		}
	}
	cycle("startup", []goldenFrame{{MsgStartup, encode(StartupMsg{Version: ProtocolVersion})}})
	costs := map[string]float64{}
	for _, st := range goldenScript() {
		for _, f := range cycle(st.name, st.frames) {
			if f.Type == MsgComplete {
				m, err := DecodeComplete(f.Payload)
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				costs[st.name] = m.CostUnits
			}
		}
	}
	path := filepath.Join("testdata", "wire_transcript.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("transcript differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
