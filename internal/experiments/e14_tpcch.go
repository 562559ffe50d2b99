package experiments

import (
	"strings"

	"rqp/internal/storage"
	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// E14TPCCH runs the Kemper et al. mixed OLTP+BI workload: order-entry
// transactions (TPC-C-lite NewOrder/Payment) concurrent with analytic
// queries over the same tables. Reported: OLTP throughput alone, BI latency
// alone, then both under an uncontrolled mix and under workload management
// (BI queries admission-limited so transactions keep their throughput) via
// the processor-sharing simulator driven by measured costs.
func E14TPCCH(scale float64) (*Report, error) {
	cfg := workload.DefaultTPCC()
	cfg.Customers = scaleInt(30, scale)
	cfg.Items = scaleInt(200, scale)
	tp, err := workload.BuildTPCC(cfg)
	if err != nil {
		return nil, err
	}
	// Preload orders so BI queries have data.
	warm := storage.NewClock(storage.DefaultCostModel())
	for i := 0; i < scaleInt(300, scale); i++ {
		if err := tp.NewOrder(warm); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"tpcc_orders", "orderline", "tpcc_customer", "stock"} {
		t, _ := tp.Cat.Table(name)
		tp.Cat.AnalyzeTable(t, 16)
	}

	// Measure one OLTP transaction's cost and one BI query's cost.
	txClk := storage.NewClock(storage.DefaultCostModel())
	nTx := 50
	for i := 0; i < nTx; i++ {
		if err := tp.NewOrder(txClk); err != nil {
			return nil, err
		}
		if err := tp.Payment(txClk); err != nil {
			return nil, err
		}
	}
	txCost := txClk.Units() / float64(nTx)

	biQueries := []string{
		`SELECT ol_i_id, COUNT(*), SUM(ol_amount) FROM orderline GROUP BY ol_i_id ORDER BY SUM(ol_amount) DESC LIMIT 10`,
		`SELECT tpcc_orders.o_w_id, COUNT(*) FROM tpcc_orders, orderline
			WHERE tpcc_orders.o_id = orderline.ol_o_id GROUP BY tpcc_orders.o_w_id`,
	}
	biCost := 0.0
	for _, q := range biQueries {
		run, err := execute(tp.Cat, defaults(), sqls(q)...)
		if err != nil {
			return nil, err
		}
		biCost += run.cost()
	}
	biCost /= float64(len(biQueries))

	// Mixed-workload simulation on 4 processors: 40 transactions (DOP 1)
	// arriving steadily plus 4 BI queries (DOP 4) arriving in a burst.
	const procs = 4
	mkJobs := func() []wlm.Job {
		var jobs []wlm.Job
		for i := 0; i < 40; i++ {
			jobs = append(jobs, wlm.Job{
				ID: jid("tx", i), Cost: txCost, MaxDOP: 1,
				Arrival: float64(i) * txCost / 2, Priority: 1,
			})
		}
		for i := 0; i < 4; i++ {
			jobs = append(jobs, wlm.Job{
				ID: jid("bi", i), Cost: biCost, MaxDOP: procs,
				Arrival: txCost * 5, Priority: 1,
			})
		}
		return jobs
	}
	uncontrolled := wlm.SimulateProcessorSharing(mkJobs(), procs, 0)
	// WLM: the BI class is admission-gated (MPL=1) while transactions are
	// exempt and prioritized — the classic mixed-workload policy.
	gatedJobs := mkJobs()
	for i := range gatedJobs {
		if gatedJobs[i].MaxDOP == 1 {
			gatedJobs[i].Priority = 5
			gatedJobs[i].Exempt = true
		}
	}
	gated := wlm.SimulateProcessorSharing(gatedJobs, procs, 1)

	// meanResp is the mean response time of the jobs of one class.
	meanResp := func(class string) func(cs []wlm.Completion) float64 {
		return func(cs []wlm.Completion) float64 {
			total, n := 0.0, 0
			for _, c := range cs {
				if strings.HasPrefix(c.ID, class) {
					total += c.Response
					n++
				}
			}
			return total / float64(n)
		}
	}
	txResp, biResp := meanResp("tx"), meanResp("bi")

	r := newReport("E14", "TPC-CH-lite mixed OLTP+BI workload with workload management")
	r.Printf("per-transaction cost=%.2f  per-BI-query cost=%.1f", txCost, biCost)
	r.Printf("uncontrolled mix: tx avg resp=%.2f  bi avg resp=%.1f",
		txResp(uncontrolled), biResp(uncontrolled))
	r.Printf("WLM (BI gated MPL=1, tx exempt+prioritized): tx avg resp=%.2f  bi avg resp=%.1f",
		txResp(gated), biResp(gated))
	improvement := txResp(uncontrolled) / txResp(gated)
	r.Printf("transaction response improvement under WLM = %.2fx", improvement)
	r.Set("tx_uncontrolled", txResp(uncontrolled))
	r.Set("tx_gated", txResp(gated))
	r.Set("bi_uncontrolled", biResp(uncontrolled))
	r.Set("bi_gated", biResp(gated))
	r.Set("wlm_tx_improvement", improvement)
	return r, nil
}

func jid(prefix string, i int) string {
	return prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
