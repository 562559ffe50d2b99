package experiments

import (
	"fmt"

	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
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
				o := opt.New(cat)
				o.Opt.MemBudgetRows = mem
				st, err := sql.Parse(queries[name])
				if err != nil {
					return 0, err
				}
				bq, err := plan.Bind(st.(*sql.SelectStmt), cat)
				if err != nil {
					return 0, err
				}
				root, err := o.Optimize(bq, nil)
				if err != nil {
					return 0, err
				}
				ctx := exec.NewContext()
				ctx.Mem = exec.NewMemBroker(mem)
				if _, err := exec.Run(root, ctx); err != nil {
					return 0, fmt.Errorf("E10 %s: %w", name, err)
				}
				total += ctx.Clock.Units()
			}
		}
		return total, nil
	}

	// lo is the broker's progress floor (as E23's bottom rung): the hash joins
	// build on dimension-side joins of a few dozen rows at small scales, and a
	// budget they fit in would make every schedule cost the same.
	const hi, lo = 1 << 18, 16
	ubl, err := runSchedule(wlm.ConstantMemory(hi))
	if err != nil {
		return nil, err
	}
	lbl, err := runSchedule(wlm.ConstantMemory(lo))
	if err != nil {
		return nil, err
	}
	declining, err := runSchedule(wlm.DecliningMemory(hi, lo, len(suite)*3))
	if err != nil {
		return nil, err
	}
	oscillating, err := runSchedule(wlm.OscillatingMemory(hi, lo, 2))
	if err != nil {
		return nil, err
	}

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
	boolAsFloat := 0.0
	if inEnvelope {
		boolAsFloat = 1
	}
	r.Set("in_envelope", boolAsFloat)
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

	alone := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: qiCost, MaxDOP: procs},
	}, procs, 0)
	ubl := alone[0].Response

	serial := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: qiCost, MaxDOP: 1},
	}, procs, 0)
	lbl := serial[0].Response

	r := newReport("E11", "FPT fluctuating parallelism test (procUBL/procLBL envelope)")
	r.Printf("procUBL (alone, DOP=%d) = %.1f", procs, ubl)
	r.Printf("procLBL (alone, DOP=1)  = %.1f", lbl)
	worst := ubl
	for _, qmDOP := range []int{2, 4, 8, 16} {
		cs := wlm.SimulateProcessorSharing([]wlm.Job{
			{ID: "qi", Cost: qiCost, MaxDOP: procs},
			{ID: "qm", Cost: qiCost, MaxDOP: qmDOP, Arrival: ubl / 4},
		}, procs, 0)
		var qi wlm.Completion
		for _, c := range cs {
			if c.ID == "qi" {
				qi = c
			}
		}
		r.Printf("Qm DOP=%-3d  Qi response=%.1f (%.2fx of UBL)", qmDOP, qi.Response, qi.Response/ubl)
		if qi.Response > worst {
			worst = qi.Response
		}
	}
	// With an MPL gate of 1, Qi is insulated (Qm queues behind it).
	gated := wlm.SimulateProcessorSharing([]wlm.Job{
		{ID: "qi", Cost: qiCost, MaxDOP: procs, Priority: 2},
		{ID: "qm", Cost: qiCost, MaxDOP: 16, Arrival: ubl / 4, Priority: 1},
	}, procs, 1)
	var qiGated wlm.Completion
	for _, c := range gated {
		if c.ID == "qi" {
			qiGated = c
		}
	}
	r.Printf("with MPL=1 gate: Qi response=%.1f (insulated)", qiGated.Response)
	r.Set("ubl", ubl)
	r.Set("lbl", lbl)
	r.Set("worst_interference", worst)
	r.Set("gated", qiGated.Response)
	inEnv := 0.0
	if worst >= ubl-1e-9 && worst <= lbl+1e-9 {
		inEnv = 1
	}
	r.Set("in_envelope", inEnv)
	return r, nil
}
