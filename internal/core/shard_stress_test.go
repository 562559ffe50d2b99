package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"rqp/internal/exec"
	"rqp/internal/plan"
	"rqp/internal/workload"
)

// TestShardedStartOrderStress pins morsel-order output identity against
// shard scheduling: shard goroutines are forced to start in staggered,
// reversed and randomized orders, and every run must produce byte-identical
// rows and the identical simulated cost. Run under -race this also shakes
// out unsynchronized access between the shard goroutines, the routing
// closures and the stats.
func TestShardedStartOrderStress(t *testing.T) {
	wcfg := shardTestCatalog(t, 1.3)
	cat, err := workload.BuildShardJoin(*wcfg)
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT pt.k, bt.bval, pt.pval FROM pt, bt WHERE pt.k = bt.k AND bt.bval < 700"

	base := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16})
	w := base.MustExec(q)
	wantRows, wantCost := rowsKey(w), w.Cost

	defer exec.SetShardStartHook(nil)
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	hooks := []struct {
		name string
		fn   func(shard int)
	}{
		{"staggered", func(shard int) {
			time.Sleep(time.Duration(shard) * 200 * time.Microsecond)
		}},
		{"reversed", func(shard int) {
			time.Sleep(time.Duration(8-shard) * 200 * time.Microsecond)
		}},
		{"randomized", func(shard int) {
			mu.Lock()
			d := time.Duration(rng.Intn(500)) * time.Microsecond
			mu.Unlock()
			time.Sleep(d)
		}},
	}

	iters := 6
	if testing.Short() {
		iters = 2
	}
	for _, h := range hooks {
		exec.SetShardStartHook(h.fn)
		for _, mode := range []plan.ShuffleMode{plan.ShuffleRepartition, plan.ShuffleBroadcast} {
			for _, shards := range []int{2, 4, 8} {
				eng := Attach(cat, Config{Policy: PolicyClassic, Options: withBudget(1 << 16),
					HistBuckets: 16, DOP: 2, Shards: shards, ShuffleForce: mode})
				for i := 0; i < iters; i++ {
					got := eng.MustExec(q)
					if rowsKey(got) != wantRows {
						t.Fatalf("%s/%s/shards=%d iter=%d: row order diverged", h.name, mode, shards, i)
					}
					if got.Cost != wantCost {
						t.Fatalf("%s/%s/shards=%d iter=%d: cost %v != %v", h.name, mode, shards, i, got.Cost, wantCost)
					}
				}
			}
		}
	}
}
