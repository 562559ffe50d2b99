package exec

import (
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// hashAgg groups via a hash table bounded by the broker's grant: group
// state beyond the grant spills input rows to hash partitions that
// re-aggregate recursively after the input is exhausted (aggSink). Output
// order is made deterministic by sorting groups on the key (cheap relative
// to the aggregation itself and essential for reproducible experiment
// output).
type hashAgg struct {
	ctx       *Context
	node      *plan.AggNode
	child     Operator
	aggOutput // Next
}

func (h *hashAgg) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	sink := newAggSink(h.ctx, newAggLayout(h.node), 0)
	defer sink.close()
	for {
		r, ok, err := h.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.ctx.Clock.Probes(1)
		if err := sink.add(r); err != nil {
			return err
		}
	}
	segs, err := sink.finish()
	if err != nil {
		return err
	}
	h.open(h.ctx.Clock, sink.tab.lay, segs, allGroups(segs))
	return nil
}

func rowsEqual(a, b []types.Value) bool { return len(a) == len(b) && compareKeys(a, b) == 0 }

func (h *hashAgg) Close() error {
	h.aggOutput = aggOutput{}
	return h.child.Close()
}

// streamAgg expects input grouped (sorted) on the group expressions and
// emits each group as it completes — the low-memory aggregation path: one
// group's accumulators, reused from group to group, and one lent output row.
type streamAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child Operator

	lay  *aggLayout
	key  []types.Value // scratch: the current input row's group key
	cur  aggSeg        // the open group, if any
	row  types.Row
	done bool
}

func (s *streamAgg) Open() error {
	s.lay = newAggLayout(s.node)
	s.key = make([]types.Value, s.lay.keyW)
	s.cur.empty()
	s.done = false
	return s.child.Open()
}

func (s *streamAgg) Next() (types.Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		r, ok, err := s.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.cur.n > 0 || s.lay.keyW == 0 {
				return s.emit(), true, nil
			}
			return nil, false, nil
		}
		s.ctx.Clock.Compares(1)
		if err := s.lay.evalKey(s.key, r, s.ctx.Params); err != nil {
			return nil, false, err
		}
		closed := s.cur.n > 0 && !rowsEqual(s.lay.key(&s.cur, 0), s.key)
		if closed {
			s.emit()
		}
		if s.cur.n == 0 {
			s.lay.push(&s.cur, s.key)
		}
		if err := s.lay.accum(&s.cur, 0, r, s.ctx.Params); err != nil {
			return nil, false, err
		}
		if closed {
			return s.row, true, nil
		}
	}
}

// emit closes the open group (an empty one for a global aggregate without
// input) and lends its row.
func (s *streamAgg) emit() types.Row {
	s.ctx.Clock.RowWork(1)
	if s.cur.n == 0 {
		s.lay.push(&s.cur, nil)
	}
	s.row = s.lay.row(s.row, &s.cur, 0)
	s.cur.empty()
	return s.row
}

func (s *streamAgg) Close() error { return s.child.Close() }

// distinctOp removes duplicates via hashing: the rows seen so far sit in a
// joinTable keyed on the whole row, and a row not among them passes through
// as its child lent it.
type distinctOp struct {
	ctx   *Context
	child Operator
	seen  *joinTable
	cand  types.Row // a row seen under the same hash, boxed
}

func (d *distinctOp) Open() error {
	d.seen = &joinTable{}
	return d.child.Open()
}

func (d *distinctOp) Next() (types.Row, bool, error) {
next:
	for {
		r, ok, err := d.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.ctx.Clock.Probes(1)
		h := types.HashRow(r)
		for i := d.seen.first(h); i >= 0; i = d.seen.after(i, h) {
			if rowsEqual(d.seen.rows.row(int(i), &d.cand), r) {
				continue next
			}
		}
		d.seen.add(r, h)
		return r, true, nil
	}
}

func (d *distinctOp) Close() error {
	d.seen = nil
	return d.child.Close()
}

// filterOp applies a predicate.
type filterOp struct {
	ctx   *Context
	pred  expr.Expr
	child Operator
}

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (types.Row, bool, error) {
	for {
		r, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		f.ctx.Clock.RowWork(1)
		pass, err := expr.EvalPredicate(f.pred, r, f.ctx.Params)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return r, true, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// projectOp computes output expressions into one reused output row.
type projectOp struct {
	ctx   *Context
	exprs []expr.Expr
	child Operator
	out   types.Row
}

func (p *projectOp) Open() error {
	p.out = make(types.Row, len(p.exprs))
	return p.child.Open()
}

func (p *projectOp) Next() (types.Row, bool, error) {
	r, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.ctx.Clock.RowWork(1)
	for i, e := range p.exprs {
		v, err := e.Eval(r, p.ctx.Params)
		if err != nil {
			return nil, false, err
		}
		p.out[i] = v
	}
	return p.out, true, nil
}

func (p *projectOp) Close() error { return p.child.Close() }

// limitOp skips then caps.
type limitOp struct {
	n, skip  int
	returned int
	skipped  int
	child    Operator
}

func (l *limitOp) Open() error {
	l.returned, l.skipped = 0, 0
	return l.child.Open()
}

func (l *limitOp) Next() (types.Row, bool, error) {
	for {
		if l.n >= 0 && l.returned >= l.n {
			return nil, false, nil
		}
		r, ok, err := l.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if l.skipped < l.skip {
			l.skipped++
			continue
		}
		l.returned++
		return r, true, nil
	}
}

func (l *limitOp) Close() error { return l.child.Close() }

// materializeOp buffers its input fully on Open; POP reuses these buffers
// across re-optimizations.
type materializeOp struct {
	ctx   *Context
	child Operator
	rows  []types.Row
	pos   int
}

func (m *materializeOp) Open() error {
	rows, err := drain(m.child)
	if err != nil {
		return err
	}
	m.rows = rows
	m.pos = 0
	m.ctx.Clock.RowWork(len(rows))
	return nil
}

func (m *materializeOp) Next() (types.Row, bool, error) {
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	return r, true, nil
}

func (m *materializeOp) Close() error {
	m.rows = nil
	return nil
}

// checkOp is the POP CHECK operator: it counts rows flowing through and
// raises CardinalityViolation the moment the count leaves the validity
// range (or, for an undershoot, when the input ends early).
type checkOp struct {
	node  *plan.CheckNode
	child Operator
	n     float64
}

func (c *checkOp) Open() error {
	c.n = 0
	return c.child.Open()
}

func (c *checkOp) Next() (types.Row, bool, error) {
	r, ok, err := c.child.Next()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if c.n < c.node.Lo {
			return nil, false, &CardinalityViolation{Node: c.node, Actual: c.n}
		}
		return nil, false, nil
	}
	c.n++
	if c.node.Hi > 0 && c.n > c.node.Hi {
		return nil, false, &CardinalityViolation{Node: c.node, Actual: c.n}
	}
	return r, true, nil
}

func (c *checkOp) Close() error { return c.child.Close() }
