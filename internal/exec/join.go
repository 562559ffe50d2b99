package exec

import (
	"fmt"
	"sort"

	"rqp/internal/expr"
	"rqp/internal/index"
	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

func buildJoin(node *plan.JoinNode, l, r Operator, ctx *Context) (Operator, error) {
	switch node.Alg {
	case plan.JoinMerge:
		return &mergeJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinNL:
		return &nlJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinSymHash:
		return &symHashJoin{ctx: ctx, node: node, left: l, right: r}, nil
	case plan.JoinGeneral:
		return &gJoin{ctx: ctx, node: node, left: l, right: r}, nil
	}
	return nil, fmt.Errorf("exec: join algorithm %v not executable", node.Alg)
}

// drain materializes an operator's output: rows the caller owns (collect).
func drain(op Operator) ([]types.Row, error) { return collect(op, nil) }

// keyInto fills dst (len(cols)) with r's key columns. Callers own dst as
// scratch, so extracting a key never allocates.
func keyInto(dst []types.Value, r types.Row, cols []int) {
	for i, c := range cols {
		dst[i] = r[c]
	}
}

func keyHasNull(k []types.Value) bool {
	for _, v := range k {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// joinResidual is the one shared accept/charge step for post-join residual
// predicates: evaluate the residual (if any) over the assembled row and
// charge the per-row work only for survivors. Every join variant — equi-joins
// through joinRow.match and the index nested-loop join directly — funnels
// through it so the charge discipline cannot drift between copies.
func joinResidual(clk *storage.Clock, params []types.Value, residual expr.Expr, out types.Row) (bool, error) {
	if residual != nil {
		ok, err := expr.EvalPredicate(residual, out, params)
		if err != nil || !ok {
			return false, err
		}
	}
	clk.RowWork(1)
	return true, nil
}

// padNulls overwrites buf with l followed by n NULLs: the outer row of a
// probe row nothing matched.
func padNulls(buf, l types.Row, n int) types.Row {
	buf = append(buf[:0], l...)
	for i := 0; i < n; i++ {
		buf = append(buf, types.Null())
	}
	return buf
}

// ---------- nested-loop join ----------

// nlJoin materializes the right input once and loops it per left row.
type nlJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	inner   []types.Row
	key     []types.Value // the current left row's equi key
	keyNull bool
	out     joinRow
	lrow    types.Row
	have    bool // lrow is in flight
	matched bool
	ipos    int
	lDone   bool
}

func (j *nlJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	inner, err := drain(j.right)
	if err != nil {
		return err
	}
	j.inner = inner
	j.ctx.Clock.RowWork(len(inner))
	j.key = make([]types.Value, len(j.node.LeftKeys))
	j.out = newJoinRow(j.node)
	j.have = false
	j.lDone = false
	return nil
}

func (j *nlJoin) Next() (types.Row, bool, error) {
	for {
		if !j.have {
			if j.lDone {
				return nil, false, nil
			}
			lr, ok, err := j.left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.lDone = true
				continue
			}
			j.lrow, j.have = lr, true
			keyInto(j.key, lr, j.node.LeftKeys)
			j.keyNull = keyHasNull(j.key)
			j.matched = false
			j.ipos = 0
		}
		for j.ipos < len(j.inner) {
			r := j.inner[j.ipos]
			j.ipos++
			j.ctx.Clock.Compares(1)
			// Equi keys (if any) are evaluated like any other predicate here.
			if len(j.key) > 0 && (j.keyNull || !keyMatches(j.key, r, j.node.RightKeys)) {
				continue
			}
			out, ok, err := j.out.match(j.ctx.Clock, j.ctx.Params, j.lrow, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				j.matched = true
				return out, true, nil
			}
		}
		j.have = false
		if j.node.Type == plan.LeftOuter && !j.matched {
			j.ctx.Clock.RowWork(1)
			return j.out.outer(j.lrow), true, nil
		}
	}
}

func (j *nlJoin) Close() error {
	j.inner = nil
	return j.left.Close()
}

// ---------- merge join ----------

// mergeJoin sorts both inputs on the join keys and merges. Duplicate key
// groups on the right are buffered and replayed.
type mergeJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	lrows, rrows []types.Row
	li, ri       int
	group        []types.Row
	gi           int
	lrow         types.Row
	lk, rk       []types.Value // key scratch
	out          joinRow
}

func (j *mergeJoin) Open() error {
	lrows, err := drain(j.left)
	if err != nil {
		return err
	}
	rrows, err := drain(j.right)
	if err != nil {
		return err
	}
	sortRows(j.ctx, lrows, j.node.LeftKeys)
	sortRows(j.ctx, rrows, j.node.RightKeys)
	j.lrows, j.rrows = lrows, rrows
	j.li, j.ri = 0, 0
	j.group = nil
	j.lk = make([]types.Value, len(j.node.LeftKeys))
	j.rk = make([]types.Value, len(j.node.RightKeys))
	j.out = newJoinRow(j.node)
	return nil
}

func compareKeys(a, b []types.Value) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// sortRows stable-sorts rows on the key columns, comparing them in place.
func sortRows(ctx *Context, rows []types.Row, keys []int) {
	n := len(rows)
	if n > 1 {
		ctx.Clock.Compares(int(float64(n) * log2(float64(n))))
	}
	sort.SliceStable(rows, func(i, k int) bool {
		for _, c := range keys {
			if cmp := types.Compare(rows[i][c], rows[k][c]); cmp != 0 {
				return cmp < 0
			}
		}
		return false
	})
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

// mergeGroup advances the merge over build (sorted on rcols) to the rows
// whose key equals lk — a non-NULL probe key, keys ascending across calls —
// and collects them into group[:0]. ri is the merge position, returned
// updated; rk is key scratch. One comparison is charged per row looked at.
func mergeGroup(clk *storage.Clock, build []types.Row, rcols []int, ri int, lk, rk []types.Value, group []types.Row) (int, []types.Row) {
	for ri < len(build) {
		clk.Compares(1)
		keyInto(rk, build[ri], rcols)
		if keyHasNull(rk) || compareKeys(rk, lk) < 0 {
			ri++
			continue
		}
		break
	}
	group = group[:0]
	for k := ri; k < len(build); k++ {
		clk.Compares(1)
		keyInto(rk, build[k], rcols)
		if compareKeys(rk, lk) != 0 {
			break
		}
		group = append(group, build[k])
	}
	return ri, group
}

func (j *mergeJoin) Next() (types.Row, bool, error) {
	for {
		if j.gi < len(j.group) {
			r := j.group[j.gi]
			j.gi++
			out, ok, err := j.out.match(j.ctx.Clock, j.ctx.Params, j.lrow, r)
			if err != nil {
				return nil, false, err
			}
			if ok {
				return out, true, nil
			}
			continue
		}
		if j.li >= len(j.lrows) {
			return nil, false, nil
		}
		j.lrow = j.lrows[j.li]
		j.li++
		j.group, j.gi = j.group[:0], 0
		keyInto(j.lk, j.lrow, j.node.LeftKeys)
		if keyHasNull(j.lk) {
			continue
		}
		// An empty group moves on to the next left row, which may share the
		// key prefix and reuse the same right position.
		j.ri, j.group = mergeGroup(j.ctx.Clock, j.rrows, j.node.RightKeys, j.ri, j.lk, j.rk, j.group)
	}
}

func (j *mergeJoin) Close() error {
	j.lrows, j.rrows, j.group = nil, nil, nil
	return nil
}

// ---------- symmetric hash join ----------

// symHashJoin builds hash tables on both inputs and produces results
// incrementally as either side arrives — the pipelined operator that makes
// mid-flight adaptation cheap (no build/probe commitment).
type symHashJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	ltab, rtab *joinTable
	arena      RowArena // joined output
	key        []types.Value
	cand       types.Row // a matching row of the other table, boxed
	buf        joinRow
	out        []types.Row
	pos        int
}

func (j *symHashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		return err
	}
	j.ltab, j.rtab = &joinTable{}, &joinTable{}
	j.key = make([]types.Value, len(j.node.LeftKeys))
	j.buf = newJoinRow(j.node)
	j.out = nil
	j.pos = 0
	// Alternate pulls between inputs, emitting matches as they form.
	lDone, rDone := false, false
	for !lDone || !rDone {
		if !lDone {
			r, ok, err := j.left.Next()
			if err != nil {
				return err
			}
			if !ok {
				lDone = true
			} else if err := j.insert(r, true); err != nil {
				return err
			}
		}
		if !rDone {
			r, ok, err := j.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				rDone = true
			} else if err := j.insert(r, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *symHashJoin) insert(r types.Row, fromLeft bool) error {
	j.ctx.Clock.Probes(2) // insert + probe
	myKeys, otherKeys := j.node.LeftKeys, j.node.RightKeys
	myTab, otherTab := j.ltab, j.rtab
	if !fromLeft {
		myKeys, otherKeys = otherKeys, myKeys
		myTab, otherTab = otherTab, myTab
	}
	keyInto(j.key, r, myKeys)
	if keyHasNull(j.key) {
		return nil
	}
	h := types.HashRow(j.key)
	myTab.add(r, h)
	for i := otherTab.first(h); i >= 0; i = otherTab.after(i, h) {
		if !otherTab.rows.match(j.key, int(i), otherKeys, &j.cand) {
			continue
		}
		l, rr := r, j.cand
		if !fromLeft {
			l, rr = j.cand, r
		}
		out, ok, err := j.buf.match(j.ctx.Clock, j.ctx.Params, l, rr)
		if err != nil {
			return err
		}
		if ok {
			j.out = append(j.out, j.arena.Copy(out))
		}
	}
	return nil
}

func (j *symHashJoin) Next() (types.Row, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	r := j.out[j.pos]
	j.pos++
	return r, true, nil
}

func (j *symHashJoin) Close() error {
	j.ltab, j.rtab, j.out = nil, nil, nil
	j.left.Close()
	return j.right.Close()
}

// ---------- generalized join ----------

// gJoin is Graefe's generalized join: one algorithm replacing hash, merge
// and (index) nested-loop join. It consumes the smaller input; if it fits
// the memory grant it builds a temporary in-memory index and probes
// (hash-join-like); otherwise it partitions both inputs into grant-sized
// runs (charging spill I/O) and joins run by run — degrading smoothly
// instead of falling off the nested-loops cliff when the size estimate was
// wrong.
type gJoin struct {
	ctx   *Context
	node  *plan.JoinNode
	left  Operator
	right Operator

	out []types.Row
	pos int
}

func (j *gJoin) Open() error {
	lrows, err := drain(j.left)
	if err != nil {
		return err
	}
	rrows, err := drain(j.right)
	if err != nil {
		return err
	}
	small, large := rrows, lrows
	smallKeys, largeKeys := j.node.RightKeys, j.node.LeftKeys
	smallIsRight := true
	if len(lrows) < len(rrows) {
		small, large = lrows, rrows
		smallKeys, largeKeys = j.node.LeftKeys, j.node.RightKeys
		smallIsRight = false
	}
	grant := j.ctx.Mem.Grant(len(small))
	defer j.ctx.Mem.Release(grant)

	var arena RowArena
	var cand types.Row
	buf := newJoinRow(j.node)
	key := make([]types.Value, len(largeKeys))
	pair := func(s, g types.Row) error {
		l, r := g, s
		if !smallIsRight {
			l, r = s, g
		}
		out, ok, err := buf.match(j.ctx.Clock, j.ctx.Params, l, r)
		if err != nil {
			return err
		}
		if ok {
			j.out = append(j.out, arena.Copy(out))
		}
		return nil
	}

	inMemory := func(sm, lg []types.Row) error {
		tab := packRows(sm)
		tab.index(smallKeys, j.ctx.Clock, 1)
		for _, g := range lg {
			j.ctx.Clock.Probes(1)
			keyInto(key, g, largeKeys)
			if keyHasNull(key) {
				continue
			}
			h := types.HashRow(key)
			for i := tab.first(h); i >= 0; i = tab.after(i, h) {
				if tab.rows.match(key, int(i), smallKeys, &cand) {
					if err := pair(cand, g); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	if len(small) <= grant {
		// In-memory phase: temporary index on the small input.
		return inMemory(small, large)
	}
	// Out-of-memory phase: partition both inputs into grant-sized runs by
	// key hash (one write+read pass over both), then join run pairs in
	// memory — the smooth degradation that replaces the NL cliff.
	if grant < 16 {
		grant = 16
	}
	parts := (len(small) + grant - 1) / grant
	spill := (len(small) + len(large) + storage.PageRows - 1) / storage.PageRows
	j.ctx.Clock.Write(spill)
	j.ctx.Clock.SeqRead(spill)
	partition := func(rows []types.Row, cols []int) [][]types.Row {
		out := make([][]types.Row, parts)
		for _, r := range rows {
			keyInto(key, r, cols)
			if keyHasNull(key) {
				continue
			}
			p := int(types.HashRow(key) % uint64(parts))
			out[p] = append(out[p], r)
		}
		return out
	}
	smallParts, largeParts := partition(small, smallKeys), partition(large, largeKeys)
	for p := 0; p < parts; p++ {
		if err := inMemory(smallParts[p], largeParts[p]); err != nil {
			return err
		}
	}
	return nil
}

func (j *gJoin) Next() (types.Row, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	r := j.out[j.pos]
	j.pos++
	return r, true, nil
}

func (j *gJoin) Close() error {
	j.out = nil
	return nil
}

// ---------- index nested-loop join ----------

// indexNLJoin probes a persistent B+ tree per outer row. The fetched rows that
// pass the node's Filter are held as stored, by reference; each output row is
// the outer row followed by a match's Cols.
type indexNLJoin struct {
	ctx  *Context
	node *plan.IndexJoinNode
	left Operator

	lrow    types.Row
	have    bool // lrow is in flight
	key     []types.Value
	out     types.Row
	matches []types.Row
	midx    int
	matched bool
	lDone   bool
}

func (j *indexNLJoin) Open() error {
	j.lDone = false
	j.have = false
	j.matches, j.midx = j.matches[:0], 0
	j.key = make([]types.Value, len(j.node.LeftKeys))
	j.out = make(types.Row, 0, len(j.node.Schema()))
	return j.left.Open()
}

func (j *indexNLJoin) Next() (types.Row, bool, error) {
	for {
		for j.midx < len(j.matches) {
			r := j.matches[j.midx]
			j.midx++
			out := appendCols(append(j.out[:0], j.lrow...), r, j.node.Cols)
			ok, err := joinResidual(j.ctx.Clock, j.ctx.Params, j.node.Residual, out)
			if err != nil {
				return nil, false, err
			}
			if !ok {
				continue
			}
			j.matched = true
			return out, true, nil
		}
		if j.have && j.node.Type == plan.LeftOuter && !j.matched {
			j.have = false
			j.ctx.Clock.RowWork(1)
			return padNulls(j.out, j.lrow, len(j.node.Schema())-len(j.lrow)), true, nil
		}
		if j.lDone {
			return nil, false, nil
		}
		lr, ok, err := j.left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.lDone = true
			j.have = false
			continue
		}
		j.lrow, j.have = lr, true
		j.matched = false
		j.matches = j.matches[:0]
		j.midx = 0
		keyInto(j.key, lr, j.node.LeftKeys)
		if keyHasNull(j.key) {
			continue
		}
		var evalErr error
		j.node.Index.Tree.Lookup(j.ctx.Clock, j.key, func(e index.Entry) bool {
			r, ok := j.node.Table.Heap.Get(j.ctx.Clock, e.RID)
			if ok && j.node.Filter != nil {
				ok, evalErr = expr.EvalPredicate(j.node.Filter, r, j.ctx.Params)
			}
			if ok {
				j.matches = append(j.matches, r)
			}
			return evalErr == nil
		})
		if evalErr != nil {
			return nil, false, evalErr
		}
	}
}

func (j *indexNLJoin) Close() error {
	j.matches = nil
	return j.left.Close()
}
