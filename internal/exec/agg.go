package exec

import (
	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/types"
)

func rowsEqual(a, b []types.Value) bool { return len(a) == len(b) && compareKeys(a, b) == 0 }

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
