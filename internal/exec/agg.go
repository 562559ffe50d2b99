package exec

import (
	"slices"
	"sort"

	"rqp/internal/expr"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// aggState accumulates one aggregate for one group. DISTINCT aggregates
// additionally dedup their inputs per group.
type aggState struct {
	count    int64
	sum      float64
	min      types.Value
	max      types.Value
	seen     bool
	distinct map[uint64][]types.Value
}

func (a *aggState) add(v types.Value, dedup bool) {
	if v.IsNull() {
		return
	}
	if dedup {
		if a.distinct == nil {
			a.distinct = map[uint64][]types.Value{}
		}
		h := v.Hash()
		for _, prev := range a.distinct[h] {
			if types.Equal(prev, v) {
				return
			}
		}
		a.distinct[h] = append(a.distinct[h], v)
	}
	a.count++
	if v.Numeric() {
		a.sum += v.AsFloat()
	}
	if !a.seen || types.Less(v, a.min) {
		a.min = v
	}
	if !a.seen || types.Less(a.max, v) {
		a.max = v
	}
	a.seen = true
}

// merge folds partial state b into a (parallel aggregation combines
// per-morsel partials at the gather barrier). DISTINCT partials replay
// their deduped values through add so cross-partial duplicates collapse;
// the values are replayed in sorted-hash order so the merged state is
// identical run to run.
func (a *aggState) merge(b *aggState, spec plan.AggSpec) {
	if spec.Distinct {
		hs := make([]uint64, 0, len(b.distinct))
		for h := range b.distinct {
			hs = append(hs, h)
		}
		slices.Sort(hs)
		for _, h := range hs {
			for _, v := range b.distinct[h] {
				a.add(v, true)
			}
		}
		return
	}
	a.count += b.count
	a.sum += b.sum
	if b.seen {
		if !a.seen || types.Less(b.min, a.min) {
			a.min = b.min
		}
		if !a.seen || types.Less(a.max, b.max) {
			a.max = b.max
		}
		a.seen = true
	}
}

func (a *aggState) result(spec plan.AggSpec) types.Value {
	switch spec.Func {
	case "COUNT":
		return types.Int(a.count)
	case "SUM":
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum)
	case "AVG":
		if a.count == 0 {
			return types.Null()
		}
		return types.Float(a.sum / float64(a.count))
	case "MIN":
		if !a.seen {
			return types.Null()
		}
		return a.min
	case "MAX":
		if !a.seen {
			return types.Null()
		}
		return a.max
	}
	return types.Null()
}

type group struct {
	key    []types.Value
	states []aggState
	next   *group // the next group of the same key hash in its aggPartial
}

// hashAgg groups via a hash table bounded by the broker's grant: group
// state beyond the grant spills input rows to hash partitions that
// re-aggregate recursively after the input is exhausted (aggSink). Output
// order is made deterministic by sorting groups on the key (cheap relative
// to the aggregation itself and essential for reproducible experiment
// output).
type hashAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child Operator

	out []types.Row
	pos int
}

func (h *hashAgg) Open() error {
	if err := h.child.Open(); err != nil {
		return err
	}
	sink := newAggSink(h.ctx, h.node, 0)
	defer sink.close()
	key := make([]types.Value, len(h.node.GroupExprs))
	for {
		r, ok, err := h.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		h.ctx.Clock.Probes(1)
		for i, ge := range h.node.GroupExprs {
			v, err := ge.Eval(r, h.ctx.Params)
			if err != nil {
				return err
			}
			key[i] = v
		}
		if err := sink.add(key, r); err != nil {
			return err
		}
	}
	order, err := sink.finish()
	if err != nil {
		return err
	}
	// Global aggregate with no groups and no input still yields one row.
	if len(order) == 0 && len(h.node.GroupExprs) == 0 {
		order = append(order, &group{states: make([]aggState, len(h.node.Aggs))})
	}
	h.out = groupRows(h.ctx.Clock, h.node, order)
	h.pos = 0
	return nil
}

// groupRows is the output step every hash aggregation (serial, morsel)
// shares: sort the groups on the key — the deterministic output
// order — and lay each out as key‖aggregates in one slab, charging one unit
// of row work per group.
func groupRows(clk *storage.Clock, node *plan.AggNode, order []*group) []types.Row {
	sort.SliceStable(order, func(i, j int) bool {
		return compareKeys(order[i].key, order[j].key) < 0
	})
	w := len(node.GroupExprs) + len(node.Aggs)
	slab := make([]types.Value, 0, len(order)*w)
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		clk.RowWork(1)
		off := len(slab)
		slab = append(slab, g.key...)
		for i := range g.states {
			slab = append(slab, g.states[i].result(node.Aggs[i]))
		}
		out = append(out, types.Row(slab[off:len(slab):len(slab)]))
	}
	return out
}

// accumGroup folds one input row into a group's aggregate states.
func accumGroup(g *group, node *plan.AggNode, r types.Row, params []types.Value) error {
	for i, spec := range node.Aggs {
		if spec.Star {
			g.states[i].count++
			continue
		}
		v, err := spec.Arg.Eval(r, params)
		if err != nil {
			return err
		}
		g.states[i].add(v, spec.Distinct)
	}
	return nil
}

func rowsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func (h *hashAgg) Next() (types.Row, bool, error) {
	if h.pos >= len(h.out) {
		return nil, false, nil
	}
	r := h.out[h.pos]
	h.pos++
	return r, true, nil
}

func (h *hashAgg) Close() error {
	h.out = nil
	return h.child.Close()
}

// streamAgg expects input grouped (sorted) on the group expressions and
// emits each group as it completes — the low-memory aggregation path.
type streamAgg struct {
	ctx   *Context
	node  *plan.AggNode
	child Operator

	key        []types.Value // scratch: the current input row's group key
	curKey     []types.Value // nil while no group is open
	curStates  []aggState
	done       bool
	emittedAny bool
}

func (s *streamAgg) Open() error {
	s.key = make([]types.Value, len(s.node.GroupExprs))
	s.curKey = nil
	s.done = false
	s.emittedAny = false
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
			if s.curKey != nil || (len(s.node.GroupExprs) == 0 && !s.emittedAny) {
				return s.emit(), true, nil
			}
			return nil, false, nil
		}
		s.ctx.Clock.Compares(1)
		for i, ge := range s.node.GroupExprs {
			v, err := ge.Eval(r, s.ctx.Params)
			if err != nil {
				return nil, false, err
			}
			s.key[i] = v
		}
		if s.curKey == nil {
			s.startGroup()
		} else if !rowsEqual(s.curKey, s.key) {
			out := s.emit()
			s.startGroup()
			if err := s.accumulate(r); err != nil {
				return nil, false, err
			}
			return out, true, nil
		}
		if err := s.accumulate(r); err != nil {
			return nil, false, err
		}
	}
}

// startGroup opens a group on the scratch key (copied: non-nil even when
// there are no group expressions, since nil means no open group).
func (s *streamAgg) startGroup() {
	s.curKey = append(make([]types.Value, 0, len(s.key)), s.key...)
	s.curStates = make([]aggState, len(s.node.Aggs))
}

func (s *streamAgg) accumulate(r types.Row) error {
	for i, spec := range s.node.Aggs {
		if spec.Star {
			s.curStates[i].count++
			continue
		}
		v, err := spec.Arg.Eval(r, s.ctx.Params)
		if err != nil {
			return err
		}
		s.curStates[i].add(v, spec.Distinct)
	}
	return nil
}

func (s *streamAgg) emit() types.Row {
	s.ctx.Clock.RowWork(1)
	s.emittedAny = true
	row := make(types.Row, 0, len(s.curKey)+len(s.curStates))
	row = append(row, s.curKey...)
	if s.curStates == nil {
		s.curStates = make([]aggState, len(s.node.Aggs))
	}
	for i := range s.curStates {
		row = append(row, s.curStates[i].result(s.node.Aggs[i]))
	}
	s.curKey = nil
	s.curStates = nil
	return row
}

func (s *streamAgg) Close() error { return s.child.Close() }

// distinctOp removes duplicates via hashing: the rows seen so far sit in
// an arena, indexed by a joinTable keyed on the whole row.
type distinctOp struct {
	ctx   *Context
	child Operator
	seen  *joinTable
	arena RowArena
}

func (d *distinctOp) Open() error {
	d.seen = newJoinTable(nil)
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
			if rowsEqual(d.seen.rows[i], r) {
				continue next
			}
		}
		c := d.arena.Copy(r)
		d.seen.add(c, h)
		return c, true, nil
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
