package exec

import (
	"testing"

	"rqp/internal/types"
)

// TestRowLifetime re-runs the exactness matrices with the row-lifetime
// harness on: every operator's previously returned row is overwritten
// with sentinels on its next call, so a consumer that kept a row
// without copying it produces wrong rows or a different cost here instead of
// passing because the producer happened not to reuse its buffer.
func TestRowLifetime(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"PropertyEngineMatchesReference", TestPropertyEngineMatchesReference},
		{"PropertyIndexPathsMatchReference", TestPropertyIndexPathsMatchReference},
		{"PropertyGroupedAggregatesMatchReference", TestPropertyGroupedAggregatesMatchReference},
		{"PropertyHavingMatchesPostFilter", TestPropertyHavingMatchesPostFilter},
		{"PropertyRuntimeFiltersExact", TestPropertyRuntimeFiltersExact},
		{"RuntimeFilterExactAcrossSelectivity", TestRuntimeFilterExactAcrossSelectivity},
		{"ColumnarMatchesHeapEverywhere", TestColumnarMatchesHeapEverywhere},
		{"ColumnarCostParityAcrossVariants", TestColumnarCostParityAcrossVariants},
		{"ParallelMatchesSerial", TestParallelMatchesSerial},
		{"ParallelDeterminism", TestParallelDeterminism},
		{"SpillPropertyAcrossBudgets", TestSpillPropertyAcrossBudgets},
		{"SpillPipelineChainsExact", TestSpillPipelineChainsExact},
		{"NestedBuildExact", TestNestedBuildExact},
		{"ColumnarShardedJoinExact", TestColumnarShardedJoinExact},
		{"SpillMergeFallback", TestSpillMergeFallback},
		{"SpillSortTempRuns", TestSpillSortTempRuns},
		{"SpillCostMonotoneInBudget", TestSpillCostMonotoneInBudget},
		{"AllEnumeratedPlansAgree", TestAllEnumeratedPlansAgree},
		{"AllJoinAlgorithmsAgree", TestAllJoinAlgorithmsAgree},
		{"ForcedAlgorithmsOnDuplicateHeavyData", TestForcedAlgorithmsOnDuplicateHeavyData},
		{"JoinsWithNullKeys", TestJoinsWithNullKeys},
		{"LeftOuterJoinAllAlgorithms", TestLeftOuterJoinAllAlgorithms},
		{"Distinct", TestDistinct},
		{"OrderByLimitOffset", TestOrderByLimitOffset},
		{"Aggregation", TestAggregation},
	} {
		t.Run(tc.name, tc.fn)
	}
}

// TestRowLifetimeHarnessBites shows the harness catching the bug it exists
// for: a consumer that keeps rows without copying reads sentinels.
func TestRowLifetimeHarnessBites(t *testing.T) {
	SetRowPoison(true)
	defer SetRowPoison(false)
	src := &sliceOp{rows: []types.Row{{types.Int(1)}, {types.Int(2)}, {types.Int(3)}}}
	op := wrapOp(src)
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	var kept []types.Row
	for {
		r, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		kept = append(kept, r) // the bug: no copy
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	for i, r := range kept {
		if r[0] != staleRow {
			t.Errorf("kept row %d still reads %v: the harness did not poison it", i, r[0])
		}
	}
	if src.rows[0][0].I != 1 {
		t.Error("harness scribbled over the producer's own rows")
	}
	rows, err := drain(wrapOp(&sliceOp{rows: src.rows}))
	if err != nil || len(rows) != 3 || rows[2][0].I != 3 || rows[0][0].I != 1 {
		t.Errorf("drain under the harness returned %v, %v", rows, err)
	}
}

// sliceOp serves fixed rows (which it owns and must never see modified).
type sliceOp struct {
	rows []types.Row
	pos  int
}

func (s *sliceOp) Open() error { s.pos = 0; return nil }
func (s *sliceOp) Next() (types.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], true, nil
}
func (s *sliceOp) Close() error { return nil }
