package exec

import (
	"rqp/internal/expr"
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
