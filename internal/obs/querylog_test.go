package obs

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJSONLSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.jsonl")
	sink, closer, err := OpenJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewQueryRegistry(4, nil)
	reg.SetSink(sink)
	finish(reg, begin(reg, nil, "SELECT a FROM r", "classic"), nil, QueryRecord{
		RowCount: 5, Cost: 42.5, SpillParts: 3, SpillRows: 120, Reopts: 1,
	})
	finish(reg, begin(reg, nil, "SELECT b FROM s", "pop"), nil, QueryRecord{RowCount: 1})
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []QueryRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line not JSON: %v\n%s", err, sc.Text())
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("log holds %d records, want 2", len(recs))
	}
	if recs[0].SQL != "SELECT a FROM r" || recs[0].Cost != 42.5 ||
		recs[0].SpillParts != 3 || recs[0].Outcome != "done" {
		t.Fatalf("first record = %+v", recs[0])
	}
	if recs[1].Policy != "pop" {
		t.Fatalf("second record = %+v", recs[1])
	}
}

func TestJSONLFieldNames(t *testing.T) {
	// The JSONL schema is the query log's public contract; assert the
	// field names external consumers grep for.
	rec := QueryRecord{ID: 1, Fingerprint: "deadbeef", SpillParts: 2, QErrorGeomean: 1.5}
	raw, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "fingerprint", "spill_partitions", "qerror_geomean", "outcome", "cost_units", "duration_ms"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("serialized record missing %q: %s", key, raw)
		}
	}
}
