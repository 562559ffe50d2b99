package server

import (
	"fmt"
	"strings"
	"testing"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/workload"
)

// netShufQueries mirrors the core shard property suite's result shapes —
// a one-row aggregate, a row-level join with a pushed-down filter, a LEFT
// JOIN (null extension over the wire) — plus a join with a cross-table
// residual predicate, the shape the net transport must refuse and fall
// back on, since a residual is a coordinator closure.
var netShufQueries = []string{
	"SELECT COUNT(*), SUM(pt.pval) FROM pt, bt WHERE pt.k = bt.k",
	"SELECT pt.k, bt.bval, pt.pval FROM pt, bt WHERE pt.k = bt.k AND bt.bval < 500",
	"SELECT pt.k, bt.bval FROM pt LEFT JOIN bt ON pt.k = bt.k",
	"SELECT pt.k, bt.bval FROM pt, bt WHERE pt.k = bt.k AND pt.pval < bt.bval",
}

// netShufResidualQuery indexes the one query above whose join carries a
// residual predicate — the transport-refusal path.
const netShufResidualQuery = 3

func netRowsKey(res *core.Result) string {
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

// startWorkerPool runs n in-process shard workers on loopback — in-process
// so the race detector sees coordinator and worker goroutines in one
// binary — and returns their addresses.
func startWorkerPool(t testing.TB, n int, cfg ShardWorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w := NewShardWorker(cfg)
		if err := w.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("worker %d listen: %v", i, err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func netShufCatalog(t testing.TB, skew float64) *catalog.Catalog {
	t.Helper()
	cfg := workload.DefaultShardJoin()
	cfg.BuildRows = 600
	cfg.ProbeRows = 2400
	cfg.Keys = 150
	cfg.Skew = skew
	cat, err := workload.BuildShardJoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

type netShufCell struct {
	skew    float64
	mode    plan.ShuffleMode
	memRows int
	dop     int
	shards  []int
}

// netShufMatrix is the acceptance matrix: shards {1,2,4,8} ×
// DOP {1,2,8} × skewed/uniform, plus forced broadcast and a degrade cell.
func netShufMatrix(short bool) []netShufCell {
	all := []int{1, 2, 4, 8}
	dops := []int{1, 2, 8}
	if short {
		all = []int{1, 2, 4}
		dops = []int{1, 2}
	}
	var cells []netShufCell
	for _, dop := range dops {
		cells = append(cells, netShufCell{0, plan.ShuffleNone, 1 << 16, dop, all})
	}
	cells = append(cells,
		// Skewed keys: hot-key split with duplicated probe routing on the wire.
		netShufCell{1.4, plan.ShuffleRepartition, 1 << 16, 1, []int{2, 4, 8}},
		// Broadcast: build replicas cross the wire, probes stay put.
		netShufCell{0, plan.ShuffleBroadcast, 1 << 16, 2, []int{2, 4}},
		// Degrade: build exceeds its grant before any exchange opens.
		netShufCell{0, plan.ShuffleNone, 64, 1, []int{2, 4}})
	if short {
		cells = cells[:len(cells)-1]
	}
	return cells
}

// TestNetShuffleExactness is the cross-process half of the repo's signature
// invariant: with transport=tcp, result rows are byte-identical to serial
// and main-clock cost is integer-exactly equal — the same property the
// in-process shard suite pins, now with every hash-table build and probe
// happening behind a socket, under -race.
func TestNetShuffleExactness(t *testing.T) {
	addrs := startWorkerPool(t, 8, ShardWorkerConfig{})
	built := map[float64]*catalog.Catalog{}
	for _, cell := range netShufMatrix(testing.Short()) {
		cat, ok := built[cell.skew]
		if !ok {
			cat = netShufCatalog(t, cell.skew)
			built[cell.skew] = cat
		}
		base := core.Attach(cat, core.Config{
			Policy: core.PolicyClassic, Options: withBudget(cell.memRows),
			HistBuckets: 16, DOP: cell.dop,
		})
		want := make(map[string]*core.Result, len(netShufQueries))
		for _, q := range netShufQueries {
			want[q] = base.MustExec(q)
		}
		for _, shards := range cell.shards {
			name := fmt.Sprintf("skew=%.1f/mode=%s/mem=%d/dop=%d/shards=%d",
				cell.skew, cell.mode, cell.memRows, cell.dop, shards)
			eng := core.Attach(cat, core.Config{
				Policy: core.PolicyClassic, Options: withBudget(cell.memRows),
				HistBuckets: 16, DOP: cell.dop,
				Shards: shards, ShuffleForce: cell.mode,
				ShuffleTransport: NewNetShuffleTransport(addrs),
			})
			for qi, q := range netShufQueries {
				got := eng.MustExec(q)
				w := want[q]
				if netRowsKey(got) != netRowsKey(w) {
					t.Fatalf("%s %q: rows differ (%d vs %d)", name, q, len(got.Rows), len(w.Rows))
				}
				if got.Cost != w.Cost {
					t.Fatalf("%s %q: cost %v != serial %v", name, q, got.Cost, w.Cost)
				}
				if shards <= 1 || got.Record.Shuffle == nil {
					continue
				}
				sn := got.Record.Shuffle
				if sn.Degrades > 0 {
					continue // no exchange opened; nothing on the wire to check
				}
				if qi == netShufResidualQuery {
					// Residual predicates cannot cross a process boundary: the
					// transport must refuse pre-routing and run locally.
					if sn.NetFallbacks == 0 {
						t.Fatalf("%s %q: residual join did not fall back (transport=%q)", name, q, sn.Transport)
					}
					if sn.NetFrames != 0 {
						t.Fatalf("%s %q: fallback exchange still framed %d", name, q, sn.NetFrames)
					}
					continue
				}
				if sn.Transport != "tcp" {
					t.Fatalf("%s %q: expected tcp transport, got %q (fallbacks=%d)", name, q, sn.Transport, sn.NetFallbacks)
				}
				if sn.NetFrames == 0 || sn.NetBytes == 0 {
					t.Fatalf("%s %q: tcp transport moved nothing: %+v", name, q, sn)
				}
				if !sn.Reconciled() {
					t.Fatalf("%s %q: wire accounting off: routed %d, framed %d",
						name, q, sn.NetRowsRouted, sn.NetRowsWire)
				}
			}
		}
	}
}

// TestNetShuffleNarrowPlans is exec.TestNarrowPlanMatchesFullWidth's sharded
// cells over transport=tcp: workers join and ship left‖right, the coordinator
// cuts each gathered row down to the join's Cols, and the plan whose nodes
// emit only what is read above them returns the rows of the full-width plan
// (OptimizeJoinGraph + FinishPlan: no projection anywhere) at the same cost.
func TestNetShuffleNarrowPlans(t *testing.T) {
	addrs := startWorkerPool(t, 4, ShardWorkerConfig{})
	cat := netShufCatalog(t, 0)
	run := func(root plan.Node, force plan.ShuffleMode) (string, int64, string) {
		opt.PlanShuffles(root, 4, force)
		ctx := exec.NewContext()
		ctx.Shards, ctx.Shuffle, ctx.ShufTransport = 4, exec.NewShuffleStats(4), NewNetShuffleTransport(addrs)
		rows, err := exec.Run(root, ctx)
		if err != nil {
			t.Fatal(err)
		}
		var rec obs.QueryRecord
		ctx.Record(&rec)
		return netRowsKey(&core.Result{Rows: rows}), ctx.Clock.UnitsScaled(), rec.Shuffle.Transport
	}
	for _, q := range netShufQueries[:netShufResidualQuery] {
		for _, force := range []plan.ShuffleMode{plan.ShuffleNone, plan.ShuffleRepartition, plan.ShuffleBroadcast} {
			st, err := sql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
			if err != nil {
				t.Fatal(err)
			}
			o := opt.New(cat)
			narrow, err := o.Optimize(bq, nil)
			if err != nil {
				t.Fatal(err)
			}
			join, cols, err := o.OptimizeJoinGraph(opt.BaseRelsFromQuery(bq), bq.Conjuncts, nil)
			if err != nil {
				t.Fatal(err)
			}
			full, err := o.FinishPlan(bq, join, cols)
			if err != nil {
				t.Fatal(err)
			}
			projecting := 0
			plan.Walk(narrow, func(n plan.Node) {
				if j, ok := n.(*plan.JoinNode); ok && j.Cols != nil {
					projecting++
				}
			})
			if projecting == 0 {
				t.Fatalf("%q: no join of the narrow plan projects:\n%s", q, plan.Explain(narrow))
			}
			gotRows, gotCost, transport := run(narrow, force)
			wantRows, wantCost, _ := run(full, force)
			if transport != "tcp" {
				t.Fatalf("%q force=%s: ran over %q", q, force, transport)
			}
			if gotRows != wantRows || gotCost != wantCost {
				t.Errorf("%q force=%s: narrow plan diverges from full-width (cost %d vs %d)", q, force, gotCost, wantCost)
			}
		}
	}
}

// TestNetShuffleColocatedZeroBytes pins the no-movement guarantee across
// the network layer: a co-located join with a transport configured must
// still put zero bytes on the wire — shards that own their data have
// nothing to ship.
func TestNetShuffleColocatedZeroBytes(t *testing.T) {
	addrs := startWorkerPool(t, 4, ShardWorkerConfig{})
	for _, shards := range []int{2, 4} {
		cat := netShufCatalog(t, 0)
		if err := workload.PartitionShardJoin(cat, shards); err != nil {
			t.Fatal(err)
		}
		base := core.Attach(cat, core.Config{Policy: core.PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16})
		eng := core.Attach(cat, core.Config{
			Policy: core.PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16,
			Shards: shards, ShuffleTransport: NewNetShuffleTransport(addrs),
		})
		for _, q := range netShufQueries {
			w := base.MustExec(q)
			got := eng.MustExec(q)
			if netRowsKey(got) != netRowsKey(w) || got.Cost != w.Cost {
				t.Fatalf("shards=%d %q: colocated join not exact over net transport", shards, q)
			}
			sn := got.Record.Shuffle
			if sn == nil || sn.ColocatedJoins == 0 {
				t.Fatalf("shards=%d %q: expected colocated join, got %+v", shards, q, sn)
			}
			if sn.NetFrames != 0 || sn.NetBytes != 0 || sn.NetRowsWire != 0 {
				t.Errorf("shards=%d %q: colocated join hit the wire: frames=%d bytes=%d",
					shards, q, sn.NetFrames, sn.NetBytes)
			}
		}
	}
}

// TestNetShuffleFrameAmortization pins the batching win the transport
// exists for: on a repartition join at the default workload size, rows
// ride the wire at least 5× denser than frames — and the route-site and
// frame-site row counts reconcile exactly.
func TestNetShuffleFrameAmortization(t *testing.T) {
	addrs := startWorkerPool(t, 4, ShardWorkerConfig{})
	cat, err := workload.BuildShardJoin(workload.DefaultShardJoin())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.Attach(cat, core.Config{
		Policy: core.PolicyClassic, Options: withBudget(1 << 20), HistBuckets: 16,
		Shards: 4, ShuffleForce: plan.ShuffleRepartition,
		ShuffleTransport: NewNetShuffleTransport(addrs),
	})
	got := eng.MustExec(netShufQueries[0])
	sn := got.Record.Shuffle
	if sn == nil || sn.Transport != "tcp" {
		t.Fatalf("expected tcp shuffle, got %+v", sn)
	}
	if !sn.Reconciled() {
		t.Fatalf("wire accounting off: routed %d, framed %d", sn.NetRowsRouted, sn.NetRowsWire)
	}
	if sn.NetRowsWire < 5*sn.NetFrames {
		t.Fatalf("batching too loose: %d rows in %d frames (< 5x)", sn.NetRowsWire, sn.NetFrames)
	}
	var peerFrames, peerBytes int64
	for i := range sn.PeerFrames {
		peerFrames += sn.PeerFrames[i]
		peerBytes += sn.PeerBytes[i]
	}
	if peerFrames != sn.NetFrames || peerBytes != sn.NetBytes {
		t.Fatalf("per-peer counters do not sum to totals: %d/%d frames, %d/%d bytes",
			peerFrames, sn.NetFrames, peerBytes, sn.NetBytes)
	}
}

// TestNetShuffleTooFewPeers pins the refusal path: more shards than worker
// peers cannot open, so the join must fall back to the local exchange and
// still be exact.
func TestNetShuffleTooFewPeers(t *testing.T) {
	addrs := startWorkerPool(t, 2, ShardWorkerConfig{})
	cat := netShufCatalog(t, 0)
	base := core.Attach(cat, core.Config{Policy: core.PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16})
	eng := core.Attach(cat, core.Config{
		Policy: core.PolicyClassic, Options: withBudget(1 << 16), HistBuckets: 16,
		Shards: 4, ShuffleTransport: NewNetShuffleTransport(addrs),
	})
	q := netShufQueries[0]
	w := base.MustExec(q)
	got := eng.MustExec(q)
	if netRowsKey(got) != netRowsKey(w) || got.Cost != w.Cost {
		t.Fatal("fallback join not exact")
	}
	sn := got.Record.Shuffle
	if sn == nil || sn.NetFallbacks == 0 || sn.Transport != "local" {
		t.Fatalf("expected local fallback with too few peers, got %+v", sn)
	}
}

// withBudget is opt.DefaultOptions with a workspace of rows.
func withBudget(rows int) opt.Options {
	o := opt.DefaultOptions()
	o.MemBudgetRows = rows
	return o
}
