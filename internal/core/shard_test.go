package core

import (
	"fmt"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/workload"
)

// shardTestQueries exercises the sharded layer's distinct result shapes:
// a one-row aggregate, a row-level join under a pushed-down filter (order
// sensitive), a LEFT JOIN (null extension, broadcast/repartition only since
// hot-split is inner-only anyway), and an inner and a LEFT JOIN each with a
// residual over both sides, which the shards evaluate per candidate match.
var shardTestQueries = []string{
	"SELECT COUNT(*), SUM(pt.pval) FROM pt, bt WHERE pt.k = bt.k",
	"SELECT pt.k, bt.bval, pt.pval FROM pt, bt WHERE pt.k = bt.k AND bt.bval < 500",
	"SELECT pt.k, bt.bval FROM pt LEFT JOIN bt ON pt.k = bt.k",
	"SELECT pt.k, bt.bval FROM pt, bt WHERE pt.k = bt.k AND pt.pval < bt.bval",
	"SELECT pt.k, bt.bval FROM pt LEFT JOIN bt ON pt.k = bt.k AND bt.bval < pt.pval",
}

// withBudget is opt.DefaultOptions with a workspace of rows.
func withBudget(rows int) opt.Options {
	o := opt.DefaultOptions()
	o.MemBudgetRows = rows
	return o
}

func rowsKey(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shardTestCatalog(t *testing.T, skew float64) *workload.ShardJoinConfig {
	t.Helper()
	cfg := workload.DefaultShardJoin()
	cfg.BuildRows = 600
	cfg.ProbeRows = 2400
	cfg.Keys = 150
	cfg.Skew = skew
	return &cfg
}

// TestShardedExactness is the signature property test: byte-identical rows
// and integer-exact simulated cost vs. the serial path across shard counts
// × DOP × memory budgets × shuffle modes. Runtime filters are
// exercised separately (their adaptive disable is load-order dependent
// under concurrency, so they stay out of the strict matrix).
type shardCell struct {
	skew    float64
	mode    plan.ShuffleMode
	memRows int
	dop     int
	shards  []int
}

// shardMatrix enumerates the acceptance matrix: shard counts {1,2,4,8} ×
// DOP {1,2,8} × memory budgets (64 rows forces the degrade
// path), with the forced repartition/broadcast and skewed cells layered on
// top of the costed default.
func shardMatrix(short bool) []shardCell {
	all := []int{1, 2, 4, 8}
	var cells []shardCell
	dops := []int{1, 2, 8}
	if short {
		all = []int{1, 2, 4}
		dops = []int{1, 2}
	}
	for _, memRows := range []int{1 << 16, 64} {
		for _, dop := range dops {
			cells = append(cells, shardCell{0, plan.ShuffleNone, memRows, dop, all})
		}
	}
	// Forced exchange modes.
	for _, mode := range []plan.ShuffleMode{plan.ShuffleRepartition, plan.ShuffleBroadcast} {
		cells = append(cells,
			shardCell{0, mode, 1 << 16, 1, []int{2, 4}},
			shardCell{0, mode, 64, 2, []int{2, 4}})
	}
	// Skewed keys through the hot-split repartition path.
	cells = append(cells,
		shardCell{1.4, plan.ShuffleRepartition, 1 << 16, 1, []int{2, 4, 8}},
		shardCell{1.4, plan.ShuffleRepartition, 64, 1, []int{4}})
	return cells
}

func TestShardedExactness(t *testing.T) {
	built := map[float64]*catalog.Catalog{}
	for _, cell := range shardMatrix(testing.Short()) {
		cat, ok := built[cell.skew]
		if !ok {
			var err error
			cat, err = workload.BuildShardJoin(*shardTestCatalog(t, cell.skew))
			if err != nil {
				t.Fatal(err)
			}
			built[cell.skew] = cat
		}
		base := Attach(cat, Config{
			Policy: PolicyClassic, Options: withBudget(cell.memRows),
			HistBuckets: 16, DOP: cell.dop,
		})
		want := make(map[string]*Result, len(shardTestQueries))
		for _, q := range shardTestQueries {
			want[q] = base.MustExec(q)
		}
		for _, shards := range cell.shards {
			name := fmt.Sprintf("skew=%.1f/mode=%s/mem=%d/dop=%d/shards=%d",
				cell.skew, cell.mode, cell.memRows, cell.dop, shards)
			eng := Attach(cat, Config{
				Policy: PolicyClassic, Options: withBudget(cell.memRows),
				HistBuckets: 16, DOP: cell.dop,
				Shards: shards, ShuffleForce: cell.mode,
			})
			for _, q := range shardTestQueries {
				got := eng.MustExec(q)
				w := want[q]
				if rowsKey(got) != rowsKey(w) {
					t.Fatalf("%s %q: rows differ (%d vs %d)", name, q, len(got.Rows), len(w.Rows))
				}
				if got.Cost != w.Cost {
					t.Fatalf("%s %q: cost %v != serial %v", name, q, got.Cost, w.Cost)
				}
				if shards > 1 && got.Record.Shuffle == nil {
					t.Fatalf("%s %q: no shuffle snapshot", name, q)
				}
			}
		}
	}
}

// TestShardedColocated verifies the co-located path: both tables
// partitioned on the join key, zero rows moved, and exactness vs serial on
// the same (partitioned) physical layout at every budget and DOP — a 64-row
// budget degrades the join to the spilling stage after its per-partition
// build scans.
func TestShardedColocated(t *testing.T) {
	wcfg := shardTestCatalog(t, 0)
	for _, shards := range []int{2, 4, 8} {
		cat, err := workload.BuildShardJoin(*wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := workload.PartitionShardJoin(cat, shards); err != nil {
			t.Fatal(err)
		}
		for _, mem := range []int{1 << 16, 64} {
			for _, dop := range []int{1, 2} {
				base := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(mem), HistBuckets: 16, DOP: dop})
				eng := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(mem), HistBuckets: 16, DOP: dop, Shards: shards})
				for _, q := range shardTestQueries {
					name := fmt.Sprintf("shards=%d mem=%d dop=%d %q", shards, mem, dop, q)
					w := base.MustExec(q)
					got := eng.MustExec(q)
					if rowsKey(got) != rowsKey(w) {
						t.Fatalf("%s: rows differ", name)
					}
					if got.Cost != w.Cost {
						t.Fatalf("%s: cost %v != serial %v", name, got.Cost, w.Cost)
					}
					if got.Record.Shuffle == nil {
						t.Fatalf("%s: no shuffle snapshot", name)
					}
					if sn := got.Record.Shuffle; mem == 64 && sn.Degrades != 1 {
						t.Errorf("%s: expected the join to degrade, got %+v", name, sn)
					} else if mem != 64 && sn.ColocatedJoins != 1 {
						t.Errorf("%s: expected one colocated join, got %+v", name, sn)
					}
					if got.Record.Shuffle.RowsMoved != 0 || got.Record.Shuffle.RowsBroadcast != 0 {
						t.Errorf("%s: colocated join moved rows: %+v", name, got.Record.Shuffle)
					}
				}
			}
		}
	}
}

// TestShardedRuntimeFilterSmoke checks results (not strict cost) stay
// identical with runtime filters on: the adaptive disable makes the filter
// charge sequence scheduling-dependent, so only the row bytes are pinned.
func TestShardedRuntimeFilterSmoke(t *testing.T) {
	wcfg := shardTestCatalog(t, 0)
	cat, err := workload.BuildShardJoin(*wcfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16, RuntimeFilters: true})
	for _, shards := range []int{2, 4} {
		eng := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16,
			RuntimeFilters: true, Shards: shards})
		for _, q := range shardTestQueries {
			w := base.MustExec(q)
			got := eng.MustExec(q)
			if rowsKey(got) != rowsKey(w) {
				t.Fatalf("shards=%d %q: rows differ with runtime filters", shards, q)
			}
		}
	}
}

// TestShardedHotSplitExact pins the skew path: under heavy Zipf skew with
// hot-key splitting active, results and cost stay exact and the splitter
// actually fires.
func TestShardedHotSplitExact(t *testing.T) {
	wcfg := shardTestCatalog(t, 1.6)
	cat, err := workload.BuildShardJoin(*wcfg)
	if err != nil {
		t.Fatal(err)
	}
	q := shardTestQueries[0]
	base := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16})
	w := base.MustExec(q)
	split := false
	for _, shards := range []int{4, 8} {
		eng := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16,
			Shards: shards, ShuffleForce: plan.ShuffleRepartition})
		got := eng.MustExec(q)
		if rowsKey(got) != rowsKey(w) || got.Cost != w.Cost {
			t.Fatalf("shards=%d: skewed join not exact (cost %v vs %v)", shards, got.Cost, w.Cost)
		}
		if got.Record.Shuffle != nil && got.Record.Shuffle.HotKeys > 0 {
			split = true
		}
	}
	if !split {
		t.Error("expected hot-key splitting to trigger under 1.6 Zipf skew")
	}
}
