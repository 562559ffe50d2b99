package experiments

import (
	"fmt"
	"math"

	"rqp/internal/wlm"
	"rqp/internal/workload"
)

// E10FMT is the Fluctuating Memory Test: the TPC-H-lite query mix runs
// under (a) the full memory budget — the upper baseline memUBL, (b) the
// minimum budget — the lower baseline memLBL, and (c) declining and
// oscillating schedules. A robust engine's fluctuating-schedule cost stays
// inside the [UBL, LBL] envelope: operators shrink gracefully instead of
// failing or cliff-diving.
func E10FMT(scale float64) (*Report, error) {
	cat, err := workload.BuildTPCH(workload.TPCHConfig{Scale: 0.5 * scale, Seed: 6})
	if err != nil {
		return nil, err
	}
	suite := []string{"Q1", "Q3", "Q6", "Q10"}
	queries := workload.TPCHQueries()

	runSchedule := func(sched wlm.MemorySchedule) (float64, error) {
		total := 0.0
		step := 0
		for _, name := range suite {
			for rep := 0; rep < 3; rep++ {
				mem := sched(step)
				step++
				k := defaults()
				k.MemBudgetRows = mem
				run, err := execute(cat, k, sqls(queries[name])...)
				if err != nil {
					return 0, fmt.Errorf("E10 %s: %w", name, err)
				}
				total += run.cost()
			}
		}
		return total, nil
	}

	// lo is the broker's progress floor (as E23's bottom rung): the hash joins
	// build on dimension-side joins of a few dozen rows at small scales, and a
	// budget they fit in would make every schedule cost the same.
	const hi, lo = 1 << 18, 16
	var totals [4]float64
	for i, sched := range []wlm.MemorySchedule{wlm.ConstantMemory(hi), wlm.ConstantMemory(lo),
		wlm.DecliningMemory(hi, lo, len(suite)*3), wlm.OscillatingMemory(hi, lo, 2)} {
		if totals[i], err = runSchedule(sched); err != nil {
			return nil, err
		}
	}
	ubl, lbl, declining, oscillating := totals[0], totals[1], totals[2], totals[3]

	r := newReport("E10", "FMT fluctuating memory test (memUBL/memLBL envelope)")
	r.Printf("memUBL (all memory)   total=%.1f", ubl)
	r.Printf("memLBL (min memory)   total=%.1f", lbl)
	r.Printf("declining schedule    total=%.1f", declining)
	r.Printf("oscillating schedule  total=%.1f", oscillating)
	inEnvelope := declining >= ubl*0.999 && declining <= lbl*1.001 &&
		oscillating >= ubl*0.999 && oscillating <= lbl*1.001
	r.Printf("fluctuating runs inside [UBL, LBL] envelope: %v", inEnvelope)
	r.Set("ubl", ubl)
	r.Set("lbl", lbl)
	r.Set("declining", declining)
	r.Set("oscillating", oscillating)
	setReportBool(r, "in_envelope", inEnvelope)
	return r, nil
}

// E11FPT is the Fluctuating Parallelism Test: query Qi runs with a fixed
// processor entitlement while an interloper Qm demanding more processors
// than available arrives mid-flight. The report shows Qi's response time
// versus Qm's degree of parallelism, bracketed by procUBL (Qi alone, full
// DOP) and procLBL (Qi alone, one processor).
func E11FPT(scale float64) (*Report, error) {
	_ = scale
	const procs = 8
	qiCost := 800.0
	qmDOPs := []int{2, 4, 8, 16}
	ubl, lbl, resp := fpt(qiCost, procs, qmDOPs)

	r := newReport("E11", "FPT fluctuating parallelism test (procUBL/procLBL envelope)")
	r.Printf("procUBL (alone, DOP=%d) = %.1f", procs, ubl)
	r.Printf("procLBL (alone, DOP=1)  = %.1f", lbl)
	worst := ubl
	for i, qmDOP := range qmDOPs {
		r.Printf("Qm DOP=%-3d  Qi response=%.1f (%.2fx of UBL)", qmDOP, resp[i], resp[i]/ubl)
		worst = math.Max(worst, resp[i])
	}
	// With an MPL gate of 1, Qi is insulated (Qm queues behind it).
	gated := response(wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: qiCost, MaxDOP: procs, Priority: 2},
		{ID: "qm", Cost: qiCost, MaxDOP: 16, Arrival: ubl / 4, Priority: 1},
	}, procs, 1), "qi")
	r.Printf("with MPL=1 gate: Qi response=%.1f (insulated)", gated)
	r.Set("ubl", ubl)
	r.Set("lbl", lbl)
	r.Set("worst_interference", worst)
	r.Set("gated", gated)
	setReportBool(r, "in_envelope", worst >= ubl-1e-9 && worst <= lbl+1e-9)
	return r, nil
}

// fpt simulates the Fluctuating Parallelism Test for job Qi of cost on procs
// processors: its response alone at full DOP (ubl), alone on one processor
// (lbl), and beside an interloper Qm of each DOP in qmDOPs arriving a
// quarter of the way into it.
func fpt(cost float64, procs int, qmDOPs []int) (ubl, lbl float64, resp []float64) {
	ubl = wlm.SimulateProcessorSharing([]wlm.Job{{ID: "qi", Cost: cost, MaxDOP: procs}}, procs, 0)[0].Response
	lbl = wlm.SimulateProcessorSharing([]wlm.Job{{ID: "qi", Cost: cost, MaxDOP: 1}}, procs, 0)[0].Response
	for _, qmDOP := range qmDOPs {
		resp = append(resp, response(wlm.SimulateProcessorSharing([]wlm.Job{
			{ID: "qi", Cost: cost, MaxDOP: procs},
			{ID: "qm", Cost: cost, MaxDOP: qmDOP, Arrival: ubl / 4},
		}, procs, 0), "qi"))
	}
	return ubl, lbl, resp
}

// response is the response time of job id among cs (0 if absent).
func response(cs []wlm.Completion, id string) float64 {
	for _, c := range cs {
		if c.ID == id {
			return c.Response
		}
	}
	return 0
}
