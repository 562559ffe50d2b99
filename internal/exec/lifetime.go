package exec

import "rqp/internal/types"

// The row-lifetime harness (tests only): with poisonRows set, Build wraps
// every row operator so that each returned row is a private copy which the
// wrapper overwrites with staleRow values on the operator's next Next/Close
// — what a producer reusing its output buffer is entitled to do. A consumer
// that kept a row without copying it then reads sentinels, and the exactness
// tests fail with a diff instead of passing by luck.
var poisonRows bool

// SetRowPoison switches the row-lifetime harness on or off. Tests only; not
// safe to change while queries run.
func SetRowPoison(on bool) { poisonRows = on }

var staleRow = types.Str("\x00stale row")

func scribble(r types.Row) {
	for i := range r {
		r[i] = staleRow
	}
}

// scribbleExcept scribbles the positions of r outside keep, ascending.
func scribbleExcept(r types.Row, keep []int) {
	for i := range r {
		if len(keep) > 0 && keep[0] == i {
			keep = keep[1:]
			continue
		}
		r[i] = staleRow
	}
}

type poisonOp struct {
	Operator
	last types.Row
}

func wrapOp(op Operator) Operator {
	if poisonRows {
		return &poisonOp{Operator: op}
	}
	return op
}

func (p *poisonOp) Next() (types.Row, bool, error) {
	scribble(p.last)
	r, ok, err := p.Operator.Next()
	if ok {
		r = r.Clone()
	}
	p.last = r
	return r, ok, err
}

func (p *poisonOp) Close() error {
	scribble(p.last)
	return p.Operator.Close()
}
