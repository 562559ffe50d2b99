package opt

import (
	"rqp/internal/plan"
	"rqp/internal/storage"
)

// PlanShuffles annotates every hash join in the plan with a shuffle mode
// for sharded execution across the given shard count, and returns how many
// joins it marked. The pass is partition-aware and costed:
//
//   - Co-located: both inputs are base-table scans physically partitioned
//     on the (single-column) join key with the same shard count — matches
//     are shard-local, no rows move, the shuffle is skipped entirely.
//   - Otherwise the cheaper of repartition (move both sides by key hash;
//     probe rows only pay when they land off their source shard) and
//     broadcast (replicate the build side shards-1 times, probe stays
//     put) wins, priced with the NetRow/HashProbe constants the executor
//     charges into the shuffle-overhead domain.
//
// force overrides the costed choice with ShuffleRepartition or
// ShuffleBroadcast; ShuffleNone keeps it (and ShuffleColocated is honored
// only where the layout allows it, as the costed choice would). The pass is a
// pure function of the plan and its arguments: re-running it is
// idempotent. It writes to the tree, so the engine runs it once per plan,
// before the plan cache can share the tree between sessions.
func PlanShuffles(root plan.Node, shards int, force plan.ShuffleMode) int {
	if shards <= 1 {
		return 0
	}
	m := storage.DefaultCostModel()
	marked := 0
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.JoinNode)
		if !ok || j.Alg != plan.JoinHash {
			return
		}
		j.Shuffle = chooseShuffle(j, shards, force, m)
		marked++
	})
	return marked
}

func chooseShuffle(j *plan.JoinNode, shards int, force plan.ShuffleMode, m storage.CostModel) plan.ShuffleMode {
	if force == plan.ShuffleRepartition || force == plan.ShuffleBroadcast {
		return force
	}
	if colocatedEligible(j, shards) {
		return plan.ShuffleColocated
	}
	estL := j.Kids[0].Props().EstRows
	estR := j.Kids[1].Props().EstRows
	n := float64(shards)
	// Repartition ships the whole build side plus the fraction of probe
	// rows that hash off their source shard; broadcast ships shards-1
	// build copies and pays the replica insert work, probe rows stay put.
	repart := m.NetRow * (estR + estL*(n-1)/n)
	bcast := (n - 1) * estR * (m.NetRow + 2*m.HashProbe)
	if bcast < repart {
		return plan.ShuffleBroadcast
	}
	return plan.ShuffleRepartition
}

// colocatedEligible reports whether both join inputs are base-table scans
// whose physical partitioning matches the join key and shard count, so
// every match is already shard-local. Columnar scans are excluded: the
// column snapshot has block, not page, granularity, and the heap page
// ranges are what the partitioned layout guarantees.
func colocatedEligible(j *plan.JoinNode, shards int) bool {
	if len(j.LeftKeys) != 1 || len(j.RightKeys) != 1 {
		return false
	}
	return scanPartitionedOn(j.Kids[0], j.LeftKeys[0], shards) &&
		scanPartitionedOn(j.Kids[1], j.RightKeys[0], shards)
}

// scanPartitionedOn reports whether n is a heap scan of a table partitioned,
// shards ways, on the column its output ordinal key stands for.
func scanPartitionedOn(n plan.Node, key, shards int) bool {
	s, ok := n.(*plan.ScanNode)
	if !ok || s.Columnar {
		return false
	}
	p := s.Table.Part()
	return p != nil && p.Shards == shards && p.Col == plan.TableCol(s.Cols, key)
}
