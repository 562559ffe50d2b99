package adaptive

import (
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
)

// AttachLEO wires a LEO-style learning loop into an execution context:
// every filtered base access that finishes folds its (estimated, actual)
// rows into a factor at its key in cards, which the optimizer consults on
// subsequent queries (Stillger et al., "LEO — DB2's learning optimizer"). POP
// and LEO are complementary — POP reacts during the query, LEO learns for the
// next one.
func AttachLEO(ctx *exec.Context, cards *opt.Cards) {
	prev := ctx.OnActual
	ctx.OnActual = func(node plan.Node, actual float64) {
		if prev != nil {
			prev(node, actual)
		}
		// Only base-access keys are learned: join feedback would conflate
		// order-dependent intermediate results, and a filterless scan has no
		// key.
		switch node.(type) {
		case *plan.ScanNode, *plan.IndexScanNode:
			p := node.Props()
			cards.Learn(p.Signature, p.EstRows, actual)
		}
	}
}
