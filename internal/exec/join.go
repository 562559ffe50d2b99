package exec

import (
	"fmt"
	"sort"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// buildJoin makes the operator of a join that drains both inputs before it
// emits: a merge join or a g-join. Every other join is a pipeline stage.
func buildJoin(node *plan.JoinNode, ctx *Context) (Operator, error) {
	l, err := build(node.Kids[0], ctx)
	if err != nil {
		return nil, err
	}
	r, err := build(node.Kids[1], ctx)
	if err != nil {
		return nil, err
	}
	switch node.Alg {
	case plan.JoinMerge:
		return newMergeJoin(ctx, node, l, r), nil
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

// ---------- merge join ----------

// mergeJoin sorts both inputs on the join keys and merges. Duplicate key
// groups on the right are buffered and replayed; a LEFT OUTER join pads a
// left row nothing matched.
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
	pad          bool          // lrow is unmatched so far and owed its outer row
	lk, rk       []types.Value // key scratch
	out          joinRow
}

// newMergeJoin makes every merge join: over two operators Open drains, or,
// for the hash join's fallback, over rows handed to start.
func newMergeJoin(ctx *Context, node *plan.JoinNode, left, right Operator) *mergeJoin {
	return &mergeJoin{ctx: ctx, node: node, left: left, right: right}
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
	j.start(lrows, rrows)
	return nil
}

// start sorts both inputs on their keys and rewinds the merge to them.
func (j *mergeJoin) start(lrows, rrows []types.Row) {
	sortRows(j.ctx, lrows, j.node.LeftKeys)
	sortRows(j.ctx, rrows, j.node.RightKeys)
	j.lrows, j.rrows = lrows, rrows
	j.li, j.ri, j.gi, j.pad = 0, 0, 0, false
	j.group = nil
	j.lk = make([]types.Value, len(j.node.LeftKeys))
	j.rk = make([]types.Value, len(j.node.RightKeys))
	j.out, _ = newJoinRow(j.node, 0, nil)
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
				j.pad = false
				return out, true, nil
			}
			continue
		}
		if j.pad {
			j.pad = false
			return j.out.outer(j.ctx.Clock, j.lrow), true, nil
		}
		if j.li >= len(j.lrows) {
			return nil, false, nil
		}
		j.lrow = j.lrows[j.li]
		j.li++
		j.group, j.gi = j.group[:0], 0
		j.pad = j.node.Type == plan.LeftOuter
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
	buf, _ := newJoinRow(j.node, 0, nil)
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
	// key hash (one write+read pass over both, counted and traced as a
	// spill at depth 0), then join run pairs in memory — the smooth
	// degradation that replaces the NL cliff.
	run := max(grant, 16)
	parts := (len(small) + run - 1) / run
	rows := len(small) + len(large)
	spill := (rows + storage.PageRows - 1) / storage.PageRows
	j.ctx.Clock.Write(spill)
	j.ctx.Clock.SeqRead(spill)
	j.ctx.Spill.record(parts, rows, spill, 0)
	j.ctx.spillEvent("spill.partition", "%s depth=0 fanout=%d resident=0/%d spilled_rows=%d pages=%d grant=%d",
		j.node.Label(), parts, parts, rows, spill, grant)
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
