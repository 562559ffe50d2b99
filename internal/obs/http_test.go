package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rqp/internal/storage"
)

func get(t *testing.T, mux http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func TestDebugMuxMetrics(t *testing.T) {
	m := NewRegistry()
	m.Counter("rqp_queries_total", L("policy", "classic")).Inc()
	mux := NewDebugMux(m, NewQueryRegistry(4, m))

	code, body := get(t, mux, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, `rqp_queries_total{policy="classic"} 1`) {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
}

func TestDebugMuxQueries(t *testing.T) {
	m := NewRegistry()
	qr := NewQueryRegistry(4, m)
	mux := NewDebugMux(m, qr)

	live := begin(qr, nil, "SELECT live", "pop")
	live.SetPhase(PhaseRunning)
	finish(qr, begin(qr, nil, "SELECT gone", "classic"), nil, QueryRecord{RowCount: 2})

	code, body := get(t, mux, "/queries")
	if code != http.StatusOK {
		t.Fatalf("/queries status = %d", code)
	}
	var resp struct {
		Active []ActiveQuery `json:"active"`
		Recent []QueryRecord `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/queries not JSON: %v\n%s", err, body)
	}
	if len(resp.Active) != 1 || resp.Active[0].SQL != "SELECT live" || resp.Active[0].Phase != "running" {
		t.Fatalf("active = %+v", resp.Active)
	}
	if len(resp.Recent) != 1 || resp.Recent[0].SQL != "SELECT gone" || resp.Recent[0].Outcome != "done" {
		t.Fatalf("recent = %+v", resp.Recent)
	}
	finish(qr, live, nil, QueryRecord{})
}

func TestDebugMuxTrace(t *testing.T) {
	m := NewRegistry()
	qr := NewQueryRegistry(4, m)
	mux := NewDebugMux(m, qr)

	clock := storage.NewClock(storage.DefaultCostModel())
	tr := NewTrace(clock)
	n := fakeNode("Scan(r)", 10)
	tr.AddFragment(n)
	tr.SpanOf(n).Finish(10)
	q := begin(qr, tr, "SELECT traced", "classic")

	code, body := get(t, mux, "/trace/1")
	if code != http.StatusOK {
		t.Fatalf("/trace/1 status = %d: %s", code, body)
	}
	if !strings.Contains(body, "Scan(r)") {
		t.Fatalf("/trace/1 missing span:\n%s", body)
	}
	if code, _ := get(t, mux, "/trace/999"); code != http.StatusNotFound {
		t.Fatalf("/trace/999 status = %d, want 404", code)
	}
	if code, _ := get(t, mux, "/trace/bogus"); code != http.StatusBadRequest {
		t.Fatalf("/trace/bogus status = %d, want 400", code)
	}
	finish(qr, q, nil, QueryRecord{})
}

func TestDebugMuxNilRegistries(t *testing.T) {
	mux := NewDebugMux(nil, nil)
	for _, path := range []string{"/metrics", "/queries", "/trace/1"} {
		if code, _ := get(t, mux, path); code != http.StatusNotFound {
			t.Fatalf("%s with nil registries: status %d, want 404", path, code)
		}
	}
}

func TestStartDebugServer(t *testing.T) {
	m := NewRegistry()
	m.Counter("rqp_up").Inc()
	srv, err := StartDebugServer("127.0.0.1:0", m, NewQueryRegistry(4, m))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.Contains(srv.Addr, ":") || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("unresolved listen address %q", srv.Addr)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "rqp_up 1") {
		t.Fatalf("served metrics = %d:\n%s", resp.StatusCode, body)
	}
	// pprof is mounted.
	resp2, err := http.Get("http://" + srv.Addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp2.StatusCode)
	}
}
