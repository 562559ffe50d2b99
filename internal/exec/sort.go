package exec

import (
	"sort"

	"rqp/internal/plan"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// sortOp is an external sort: the input is consumed into runs bounded by
// the broker's current grant; a run that fills its grant is sorted and
// spilled to a storage.TempRun (its grant returning to the broker
// immediately), and spilled runs are read back for the merge. Because the
// grant is re-read per run, a budget shrink mid-sort degrades the sort
// gracefully instead of failing — the grow-and-shrink behaviour the
// resource-management sessions call for.
type sortOp struct {
	ctx   *Context
	keys  []plan.OrderSpec
	child Operator

	rows []types.Row
	pos  int
}

func (s *sortOp) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	var spilled []*storage.TempRun
	var last []types.Row // final, grant-resident run
	lastGrant := 0
	defer func() { s.ctx.Mem.Release(lastGrant) }()
	for {
		grant := s.ctx.Mem.Grant(1 << 20)
		var set RowSet
		for n := 0; n < grant; n++ {
			r, ok, err := s.child.Next()
			if err != nil {
				s.ctx.Mem.Release(grant)
				for _, tr := range spilled {
					tr.Discard()
				}
				return err
			}
			if !ok {
				break
			}
			set.add(r)
		}
		run := set.Rows()
		if len(run) == 0 {
			s.ctx.Mem.Release(grant)
			break
		}
		s.sortRun(run)
		if len(run) < grant {
			last = run
			lastGrant = grant
			break
		}
		// This run filled its grant: it spills, and its grant goes back to
		// the broker before the next run is read.
		tr := storage.NewTempRun()
		for _, r := range run {
			tr.Append(s.ctx.Clock, r)
		}
		spilled = append(spilled, tr)
		s.ctx.Mem.Release(grant)
		s.ctx.Spill.record(1, tr.Len(), tr.Pages(), 0)
		s.ctx.spillEvent("spill.sort", "run=%d rows=%d pages=%d grant=%d",
			len(spilled), tr.Len(), tr.Pages(), grant)
	}
	runs := make([][]types.Row, 0, len(spilled)+1)
	for _, tr := range spilled {
		runs = append(runs, tr.Drain(s.ctx.Clock))
	}
	if last != nil {
		runs = append(runs, last)
	}
	s.rows = s.mergeRuns(runs)
	s.pos = 0
	return nil
}

func (s *sortOp) less(a, b types.Row) bool {
	for _, k := range s.keys {
		c := types.Compare(a[k.Col], b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func (s *sortOp) sortRun(run []types.Row) {
	n := len(run)
	if n > 1 {
		s.ctx.Clock.Compares(int(float64(n) * log2(float64(n))))
	}
	sort.SliceStable(run, func(i, j int) bool { return s.less(run[i], run[j]) })
}

func (s *sortOp) mergeRuns(runs [][]types.Row) []types.Row {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]types.Row, 0, total)
	idx := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if idx[i] >= len(r) {
				continue
			}
			if best == -1 || s.less(r[idx[i]], runs[best][idx[best]]) {
				best = i
			}
			s.ctx.Clock.Compares(1)
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	return out
}

func (s *sortOp) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sortOp) Close() error {
	s.rows = nil
	return s.child.Close()
}
