package opt

import (
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/plan"
	"rqp/internal/types"
	"rqp/internal/workload"
)

func shuffleTestJoin(t *testing.T, estProbe, estBuild float64, partitioned int) *plan.JoinNode {
	t.Helper()
	cat := catalog.New()
	mk := func(name string, rows int) *catalog.Table {
		tb, err := cat.CreateTable(name, types.Schema{
			{Name: "k", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			cat.Insert(nil, tb, workload.IntRow(int64(i%7), int64(i)))
		}
		return tb
	}
	probe, build := mk("probe", 70), mk("build", 35)
	if partitioned > 1 {
		for _, tb := range []*catalog.Table{probe, build} {
			if err := cat.PartitionTable(tb, "k", partitioned); err != nil {
				t.Fatal(err)
			}
		}
	}
	ls := &plan.ScanNode{Table: probe}
	ls.Prop.EstRows = estProbe
	rs := &plan.ScanNode{Table: build}
	rs.Prop.EstRows = estBuild
	j := &plan.JoinNode{Alg: plan.JoinHash, LeftKeys: []int{0}, RightKeys: []int{0}}
	j.Kids = []plan.Node{ls, rs}
	return j
}

func TestPlanShufflesCostedChoice(t *testing.T) {
	// Large probe, tiny build: replicating the build side is cheaper than
	// moving a share of the probe rows.
	j := shuffleTestJoin(t, 100000, 10, 0)
	if n := PlanShuffles(j, 4, plan.ShuffleNone); n != 1 {
		t.Fatalf("marked %d joins", n)
	}
	if j.Shuffle != plan.ShuffleBroadcast {
		t.Errorf("small build side: want broadcast, got %v", j.Shuffle)
	}

	// Comparable sides: repartition moves less than full replication.
	j = shuffleTestJoin(t, 1000, 1000, 0)
	PlanShuffles(j, 4, plan.ShuffleNone)
	if j.Shuffle != plan.ShuffleRepartition {
		t.Errorf("balanced sides: want repartition, got %v", j.Shuffle)
	}
}

func TestPlanShufflesForce(t *testing.T) {
	j := shuffleTestJoin(t, 100000, 10, 0)
	PlanShuffles(j, 4, plan.ShuffleRepartition)
	if j.Shuffle != plan.ShuffleRepartition {
		t.Errorf("force=repartition ignored: %v", j.Shuffle)
	}
	PlanShuffles(j, 4, plan.ShuffleBroadcast)
	if j.Shuffle != plan.ShuffleBroadcast {
		t.Errorf("force=broadcast ignored: %v", j.Shuffle)
	}
	// Idempotent: re-running with no force re-derives the costed choice.
	PlanShuffles(j, 4, plan.ShuffleNone)
	if j.Shuffle != plan.ShuffleBroadcast {
		t.Errorf("re-mark not idempotent: %v", j.Shuffle)
	}
}

func TestPlanShufflesColocated(t *testing.T) {
	j := shuffleTestJoin(t, 70, 35, 4)
	PlanShuffles(j, 4, plan.ShuffleNone)
	if j.Shuffle != plan.ShuffleColocated {
		t.Errorf("matching partitioning: want colocated, got %v", j.Shuffle)
	}
	// Shard-count mismatch with the physical layout disqualifies it.
	j = shuffleTestJoin(t, 70, 35, 2)
	PlanShuffles(j, 4, plan.ShuffleNone)
	if j.Shuffle == plan.ShuffleColocated {
		t.Error("mismatched partition count must not co-locate")
	}
	// Forcing an exchange overrides co-location.
	j = shuffleTestJoin(t, 70, 35, 4)
	PlanShuffles(j, 4, plan.ShuffleBroadcast)
	if j.Shuffle != plan.ShuffleBroadcast {
		t.Errorf("force should beat colocation, got %v", j.Shuffle)
	}
	// A join key is an ordinal of the scan's output, the partitioning a table
	// column: scans narrowed to v alone join on v, which is not what the
	// tables are partitioned on.
	j = shuffleTestJoin(t, 70, 35, 4)
	for _, k := range j.Kids {
		k.(*plan.ScanNode).Cols = []int{1}
	}
	PlanShuffles(j, 4, plan.ShuffleNone)
	if j.Shuffle == plan.ShuffleColocated {
		t.Error("a join on v co-located over tables partitioned on k")
	}
}

func TestPlanShufflesDisabled(t *testing.T) {
	j := shuffleTestJoin(t, 70, 35, 0)
	if n := PlanShuffles(j, 1, plan.ShuffleNone); n != 0 {
		t.Fatalf("shards=1 marked %d", n)
	}
	if j.Shuffle != plan.ShuffleNone {
		t.Errorf("shards=1 must leave ShuffleNone, got %v", j.Shuffle)
	}
}
