package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

var updateShard = flag.Bool("update", false, "rewrite testdata/shard.golden from what the sharded joins return now")

// shardLine is one sharded execution as the golden pins it: the rows (an
// FNV-64a hash of every value, in order), the integer cost and every
// ShuffleSnapshot field outside the wire-accounting domain, per-shard
// attribution included, all in the clock's integer domain.
func shardLine(name string, res *Result) string {
	scaled := func(x float64) int64 { return int64(math.Round(x * storage.ClockScale)) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s hash=%016x rows=%d units=%d", name, types.HashRows(res.Rows), len(res.Rows), scaled(res.Cost))
	sn := res.Shuffle
	if sn == nil {
		b.WriteString(" shuffle=none")
		return b.String()
	}
	fmt.Fprintf(&b, " shards=%d moved=%d broadcast=%d hot=%d dups=%d degrades=%d colocated=%d repartition=%d broadcast_joins=%d",
		sn.Shards, sn.RowsMoved, sn.RowsBroadcast, sn.HotKeys, sn.HotProbeDups, sn.Degrades,
		sn.ColocatedJoins, sn.RepartitionJoins, sn.BroadcastJoins)
	for _, f := range []struct {
		name string
		v    []float64
	}{{"shard_units", sn.ShardUnits}, {"shard_extra", sn.ShardExtra}} {
		fmt.Fprintf(&b, " %s=", f.name)
		for i, x := range f.v {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", scaled(x))
		}
	}
	return b.String()
}

// TestShardGolden pins what every sharded join mode returns — rows, integer
// cost and per-shard attribution — on shardMatrix's cells, the co-located
// layouts at every budget and DOP, and nested TPC-H joins whose probe side is
// an operator and some of which degrade under a 64-row budget. Run with
// -update to rewrite testdata/shard.golden.
func TestShardGolden(t *testing.T) {
	var lines []string
	run := func(name string, cat *catalog.Catalog, cfg Config, queries []string) {
		eng := Attach(cat, cfg)
		for i, q := range queries {
			lines = append(lines, shardLine(fmt.Sprintf("%s/q%d", name, i), eng.MustExec(q)))
		}
	}

	built := map[float64]*catalog.Catalog{}
	for _, cell := range shardMatrix(false) {
		cat, ok := built[cell.skew]
		if !ok {
			var err error
			if cat, err = workload.BuildShardJoin(*shardTestCatalog(t, cell.skew)); err != nil {
				t.Fatal(err)
			}
			built[cell.skew] = cat
		}
		mode := "" // the costed choice, as the golden names it
		if cell.mode != plan.ShuffleNone {
			mode = cell.mode.String()
		}
		for _, shards := range cell.shards {
			run(fmt.Sprintf("matrix/skew=%.1f/mode=%s/mem=%d/dop=%d/shards=%d", cell.skew, mode, cell.memRows, cell.dop, shards),
				cat, Config{Policy: PolicyClassic, Options: withBudget(cell.memRows), HistBuckets: 16, DOP: cell.dop, Shards: shards, ShuffleForce: cell.mode},
				shardTestQueries)
		}
	}

	for _, shards := range []int{2, 4, 8} {
		cat, err := workload.BuildShardJoin(*shardTestCatalog(t, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.PartitionShardJoin(cat, shards); err != nil {
			t.Fatal(err)
		}
		for _, mem := range []int{1 << 16, 64} {
			for _, dop := range []int{1, 2} {
				run(fmt.Sprintf("colocated/shards=%d/mem=%d/dop=%d", shards, mem, dop),
					cat, Config{Policy: PolicyClassic, Options: withBudget(mem), HistBuckets: 16, DOP: dop, Shards: shards},
					shardTestQueries)
			}
		}
	}

	tpch, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range []int{1 << 20, 64} {
		eng := Attach(tpch, Config{Policy: PolicyClassic, Options: withBudget(mem), Shards: 4})
		for _, q := range []string{"Q3", "Q5", "Q10"} {
			lines = append(lines, shardLine(fmt.Sprintf("tpch/%s/mem=%d/shards=4", q, mem), eng.MustExec(workload.TPCHQueries()[q])))
		}
	}

	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/shard.golden"
	if *updateShard {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
