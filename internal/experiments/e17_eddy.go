package experiments

import (
	"fmt"

	"rqp/internal/adaptive"
	"rqp/internal/exec"
	"rqp/internal/expr"
	"rqp/internal/types"
	"rqp/internal/workload"
)

// E17Eddy measures deferred selection ordering: a tuple stream whose
// predicate selectivities flip mid-stream. A static order is wrong for one
// half whichever order is chosen; the eddy (ranked and lottery variants)
// adapts. The metric is total predicate evaluations (∝ CPU).
func E17Eddy(scale float64) (*Report, error) {
	n := scaleInt(60000, scale)
	rows := make([]types.Row, n)
	g := workload.NewGen(51)
	for i := range rows {
		var a, b, c int64
		switch {
		case i < n/3: // f0 selective
			a, b, c = g.Uniform(1000), 5, 5
		case i < 2*n/3: // f1 selective
			a, b, c = 5, g.Uniform(1000), 5
		default: // f2 selective
			a, b, c = 5, 5, g.Uniform(1000)
		}
		rows[i] = types.Row{types.Int(a), types.Int(b), types.Int(c)}
	}
	mk := func(col int) expr.Expr {
		return &expr.Bin{Op: expr.OpLT,
			L: &expr.Col{Index: col, Typ: types.KindInt},
			R: &expr.Const{V: types.Int(10)}}
	}
	filters := []expr.Expr{mk(0), mk(1), mk(2)}

	ctxS := exec.NewContext()
	keptS, statsS, err := adaptive.StaticFilter(filters, rows, ctxS)
	if err != nil {
		return nil, err
	}
	ctxE := exec.NewContext()
	ranked := &adaptive.Eddy{Filters: filters, Window: 256, Seed: 5}
	keptE, statsE, err := ranked.Run(rows, ctxE)
	if err != nil {
		return nil, err
	}
	ctxL := exec.NewContext()
	lottery := &adaptive.Eddy{Filters: filters, Window: 256, Seed: 5, Lottery: true}
	keptL, statsL, err := lottery.Run(rows, ctxL)
	if err != nil {
		return nil, err
	}

	if len(keptS) != len(keptE) || len(keptS) != len(keptL) {
		return nil, fmt.Errorf("E17: result sizes differ: %d %d %d", len(keptS), len(keptE), len(keptL))
	}
	r := newReport("E17", "eddy adaptive selection ordering under selectivity drift")
	r.Printf("tuples=%d survivors=%d", n, len(keptS))
	r.Printf("static order:   evaluations=%d", statsS.Evaluations)
	r.Printf("eddy (ranked):  evaluations=%d reorders=%d", statsE.Evaluations, statsE.Reorders)
	r.Printf("eddy (lottery): evaluations=%d", statsL.Evaluations)
	saving := 1 - float64(statsE.Evaluations)/float64(statsS.Evaluations)
	r.Printf("ranked eddy saves %.1f%% of predicate work", 100*saving)
	r.Set("static_evals", float64(statsS.Evaluations))
	r.Set("eddy_evals", float64(statsE.Evaluations))
	r.Set("lottery_evals", float64(statsL.Evaluations))
	r.Set("saving_fraction", saving)
	r.Set("reorders", float64(statsE.Reorders))
	return r, nil
}
