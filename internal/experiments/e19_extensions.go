package experiments

import (
	"fmt"
	"math"
	"strings"

	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/stats"
	"rqp/internal/storage"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E19SelfTuningHistogram evaluates the Aboulnaga–Chaudhuri self-tuning
// histogram (reading-list technique): built without scanning the data,
// refined purely from query feedback, and tracking a mid-stream data-
// distribution shift that a statically built histogram silently misses.
func E19SelfTuningHistogram(scale float64) (*Report, error) {
	n := scaleInt(20000, scale)
	g := workload.NewGen(61)
	// Phase 1 data: concentrated low. Phase 2: concentrated high.
	mkData := func(highSkew bool) []float64 {
		out := make([]float64, n)
		for i := range out {
			if g.R.Float64() < 0.8 {
				if highSkew {
					out[i] = 800 + g.R.Float64()*200
				} else {
					out[i] = g.R.Float64() * 200
				}
			} else {
				out[i] = g.R.Float64() * 1000
			}
		}
		return out
	}
	actual := func(data []float64, lo, hi float64) float64 {
		c := 0.0
		for _, v := range data {
			if v >= lo && v <= hi {
				c++
			}
		}
		return c
	}
	evalErr := func(est func(lo, hi float64) float64, data []float64) float64 {
		total := 0.0
		for lo := 0.0; lo < 1000; lo += 100 {
			a := actual(data, lo, lo+100)
			total += math.Abs(est(lo, lo+100)-a) / math.Max(a, 1)
		}
		return total / 10
	}

	data := mkData(false)
	// Static histogram built once on phase-1 data.
	static := stats.BuildHistogram(data, 20)
	staticEst := func(lo, hi float64) float64 { return static.SelectivityRange(lo, hi) * float64(n) }
	// Self-tuning histogram starts blind (uniform).
	st := stats.NewSelfTuning(0, 1000, float64(n), 20)
	stEst := func(lo, hi float64) float64 { return st.EstimateRange(lo, hi) }

	r := newReport("E19", "self-tuning histogram vs static under data drift (extension)")
	r.Printf("phase 1 (before any feedback): static_err=%.3f selftuning_err=%.3f",
		evalErr(staticEst, data), evalErr(stEst, data))
	train := func(data []float64, queries int) {
		for q := 0; q < queries; q++ {
			lo := g.R.Float64() * 900
			hi := lo + g.R.Float64()*150
			st.Observe(lo, hi, actual(data, lo, hi))
		}
	}
	train(data, scaleInt(400, scale))
	p1Static, p1Self := evalErr(staticEst, data), evalErr(stEst, data)
	r.Printf("phase 1 (after feedback):      static_err=%.3f selftuning_err=%.3f", p1Static, p1Self)

	// The data drifts; the static histogram is never rebuilt.
	data = mkData(true)
	driftStatic, driftSelfBefore := evalErr(staticEst, data), evalErr(stEst, data)
	train(data, scaleInt(400, scale))
	driftSelfAfter := evalErr(stEst, data)
	r.Printf("after drift:  static_err=%.3f selftuning before=%.3f after=%.3f",
		driftStatic, driftSelfBefore, driftSelfAfter)
	r.Set("phase1_static", p1Static)
	r.Set("phase1_selftuning", p1Self)
	r.Set("drift_static", driftStatic)
	r.Set("drift_selftuning", driftSelfAfter)
	return r, nil
}

// E20SharedScans measures the coordinated-scan technique from the
// robust-execution catalogue: N concurrent full scans of a fact table,
// independent versus riding one shared circular sweep.
func E20SharedScans(scale float64) (*Report, error) {
	cfg := workload.DefaultStar()
	cfg.FactRows = scaleInt(20000, scale)
	cat, err := workload.BuildStar(cfg)
	if err != nil {
		return nil, err
	}
	fact, _ := cat.Table("fact")
	r := newReport("E20", "shared (circular) scans vs independent scans (extension)")
	for _, consumers := range []int{1, 2, 4, 8} {
		indep := storage.NewClock(storage.DefaultCostModel())
		for i := 0; i < consumers; i++ {
			fact.Heap.Scan(indep, func(_ storage.RID, _ types.Row) bool { return true })
		}
		shared := storage.NewClock(storage.DefaultCostModel())
		ss := exec.NewSharedScan(shared, fact)
		sums := make([]int64, consumers)
		for i := 0; i < consumers; i++ {
			idx := i
			ss.Attach(func(row types.Row) bool {
				sums[idx] += row[5].I
				return true
			})
		}
		ss.Run()
		for i := 1; i < consumers; i++ {
			if sums[i] != sums[0] {
				return nil, fmt.Errorf("E20: consumer results diverge")
			}
		}
		iReads, _, _, _ := indep.Counters()
		sReads, _, _, _ := shared.Counters()
		r.Printf("consumers=%d independent_reads=%d shared_reads=%d (%.1fx saved)",
			consumers, iReads, sReads, float64(iReads)/float64(sReads))
		if consumers == 8 {
			r.Set("saving_8_consumers", float64(iReads)/float64(sReads))
		}
	}
	return r, nil
}

// E21AutomaticDisaster reproduces the report's opening anecdote: "insertion
// of a few new rows might trigger an automatic update of statistics, which
// uses a different sample ... which leads to an entirely different query
// execution plan, which might actually perform much worse." A cached plan
// serves a query well; a handful of inserts plus a statistics refresh flip
// the plan; the plan-change monitor catches the flip and the measured costs
// quantify the regression (or improvement).
func E21AutomaticDisaster(scale float64) (*Report, error) {
	cfg := core.DefaultConfig()
	cfg.AutoAnalyze = true // the refresh is genuinely automatic
	eng := core.Open(cfg)
	eng.Cache = core.NewPlanCache(1) // revalidate on every reuse = eager monitor
	eng.MustExec("CREATE TABLE ad (id int, hot int, v int)")
	// insert adds rows [from, to) to ad, a hundred to a statement.
	insert := func(from, to int, row func(j int) string) {
		for i := from; i < to; i += 100 {
			var vals []string
			for j := i; j < i+100 && j < to; j++ {
				vals = append(vals, row(j))
			}
			eng.MustExec("INSERT INTO ad VALUES " + strings.Join(vals, ", "))
		}
	}
	n := scaleInt(8000, scale)
	// hot is extremely selective for value 999 before the insert wave
	insert(0, n, func(j int) string { return fmt.Sprintf("(%d, %d, %d)", j, j%500, j%41) })
	eng.MustExec("CREATE INDEX ad_hot ON ad (hot)")
	eng.MustExec("ANALYZE ad")

	q := "SELECT COUNT(*) FROM ad WHERE hot = 137"
	r1 := eng.MustExec(q)
	sig1, _ := eng.Explain(q)
	costBefore := r1.Cost

	// "A few new rows" — a burst of hot=137 rows. No manual ANALYZE: the
	// next query's automatic maintenance refreshes the histograms and
	// invalidates the cached plan.
	insert(n, n+scaleInt(3000, scale), func(j int) string { return fmt.Sprintf("(%d, 137, 0)", j) })
	r2 := eng.MustExec(q)
	sig2, _ := eng.Explain(q)
	costAfter := r2.Cost

	rep := newReport("E21", "the 'automatic disaster': auto-ANALYZE flips a cached plan (extension)")
	rep.Printf("before burst: count=%s cost=%.1f", r1.Rows[0][0], costBefore)
	rep.Printf("after burst (statistics refreshed automatically): count=%s cost=%.1f", r2.Rows[0][0], costAfter)
	changed := sig1 != sig2
	rep.Printf("plan changed: %v", changed)
	rep.Printf("plan before:\n%s", sig1)
	rep.Printf("plan after:\n%s", sig2)
	s := eng.Cache.Stats()
	rep.Printf("plan-cache monitor: hits=%d revalidations=%d plan_changes=%d",
		s.Hits, s.Revalidations, s.PlanChanges)
	rep.Set("cost_before", costBefore)
	rep.Set("cost_after", costAfter)
	setReportBool(rep, "plan_changed", changed)
	return rep, nil
}
