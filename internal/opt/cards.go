package opt

import (
	"math"
	"sync"
)

// Cards is the one seam through which anything outside the estimator
// replaces an estimate: a table from a node's Props.Signature — a filtered
// base relation's table|preds, a temp's alias, a join's join{…}, a grouped
// aggregate's agg{…} — to exact rows or to a factor on the estimate, floored
// at one row and never capped (a table may have grown since ANALYZE).
// estimateBase, cardOfSet and the aggregate's group count consult it once
// each; an empty table builds no key. LEO learns factors into the engine's
// table. POP's remainder check (exact rows) and Rio's corners (a factor on
// every non-temp base relation, keyed or not) write to a layer of their own
// over it, applied after it.
type Cards struct {
	mu    sync.RWMutex
	m     map[string]card
	under *Cards  // the table this layer applies over
	base  float64 // a factor on every non-temp base relation; 0: none
}

type card struct{ rows, factor float64 } // exact rows, or a factor when factor > 0

// Over returns an empty layer over c, for one call's own entries.
func (c *Cards) Over() *Cards { return &Cards{under: c} }

// ScaleBase multiplies every non-temp base relation's estimate by f. It is
// set on a layer before the layer is consulted.
func (c *Cards) ScaleBase(f float64) { c.base = f }

// SetRows records that the node keyed sig yields rows rows.
func (c *Cards) SetRows(sig string, rows float64) {
	c.put(sig, func(card) card { return card{rows: rows} })
}

// Learn folds one run's estimated and actual rows of the node keyed sig into
// its factor: LEO's moving average of actual/estimated (each floored at one
// row), the newest run weighing half.
func (c *Cards) Learn(sig string, estimated, actual float64) {
	ratio := math.Max(actual, 1) / math.Max(estimated, 1)
	c.put(sig, func(prev card) card {
		if prev.factor > 0 {
			ratio = (prev.factor + ratio) / 2
		}
		return card{factor: ratio}
	})
}

func (c *Cards) put(sig string, entry func(prev card) card) {
	if sig == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]card{}
	}
	c.m[sig] = entry(c.m[sig])
}

// Len returns the number of entries in c and the tables under it, a base
// factor counting as one.
func (c *Cards) Len() int {
	n := 0
	for ; c != nil; c = c.under {
		c.mu.RLock()
		n += len(c.m)
		c.mu.RUnlock()
		if c.base > 0 {
			n++
		}
	}
	return n
}

// apply returns est as c replaces it: the table under c first, then c's base
// factor when base (a non-temp base relation), then c's entry for sig.
func (c *Cards) apply(sig string, est float64, base bool) float64 {
	if c == nil {
		return est
	}
	est = c.under.apply(sig, est, base)
	if base && c.base > 0 {
		est = math.Max(1, est*c.base)
	}
	c.mu.RLock()
	e, ok := c.m[sig]
	c.mu.RUnlock()
	switch {
	case !ok:
		return est
	case e.factor > 0:
		return math.Max(1, est*e.factor)
	}
	return e.rows
}
