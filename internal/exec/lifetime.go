package exec

import "rqp/internal/types"

// The row-lifetime harness (tests only): with poisonRows set, Build wraps
// every row and batch operator so that each returned row is a private copy
// which the wrapper overwrites with staleRow values on the operator's next
// Next/NextBatch/Close — what a producer reusing its output buffer is
// entitled to do. A consumer that kept a row without copying it then reads
// sentinels, and the exactness tests fail with a diff instead of passing by
// luck.
var poisonRows bool

// SetRowPoison switches the row-lifetime harness on or off. Tests only; not
// safe to change while queries run.
func SetRowPoison(on bool) { poisonRows = on }

var staleRow = types.Str("\x00stale row")

func scribble(rows ...types.Row) {
	for _, r := range rows {
		for i := range r {
			r[i] = staleRow
		}
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

type poisonBatchOp struct {
	BatchOperator
	last []types.Row
}

func wrapBatchOp(op BatchOperator) BatchOperator {
	if poisonRows {
		return &poisonBatchOp{BatchOperator: op}
	}
	return op
}

func (p *poisonBatchOp) NextBatch(b *Batch) (int, error) {
	scribble(p.last...)
	p.last = p.last[:0]
	n, err := p.BatchOperator.NextBatch(b)
	if err != nil || n == 0 { // an exhausted producer may leave b.Sel stale
		return 0, err
	}
	for _, i := range b.Sel {
		b.Rows[i] = b.Rows[i].Clone()
		p.last = append(p.last, b.Rows[i])
	}
	return n, nil
}

func (p *poisonBatchOp) Close() error {
	scribble(p.last...)
	return p.BatchOperator.Close()
}
