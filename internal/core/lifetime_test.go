package core

import (
	"testing"

	"rqp/internal/exec"
)

// TestRowLifetime re-runs the engine-level exactness matrices (shards ×
// DOP × budgets × forced shuffle modes, runtime filters, the three
// policies, subqueries) with exec's row-lifetime harness on: every
// operator's previous row is overwritten on its next call, so a retainer
// that forgot to copy shows up as a row or cost diff.
func TestRowLifetime(t *testing.T) {
	exec.SetRowPoison(true)
	defer exec.SetRowPoison(false)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ShardedExactness", TestShardedExactness},
		{"ShardedColocated", TestShardedColocated},
		{"ShardedHotSplitExact", TestShardedHotSplitExact},
		{"ShardedRuntimeFilterSmoke", TestShardedRuntimeFilterSmoke},
		{"EngineRuntimeFiltersExactAndCheaper", TestEngineRuntimeFiltersExactAndCheaper},
		{"EnginePoliciesAgree", TestEnginePoliciesAgree},
		{"MemScheduleInjection", TestMemScheduleInjection},
		{"InSubquery", TestInSubquery},
		{"InSubqueryWithInnerPredicateAndParams", TestInSubqueryWithInnerPredicateAndParams},
		{"NestedInSubquery", TestNestedInSubquery},
		{"InSubqueryAggregateInner", TestInSubqueryAggregateInner},
		{"CountDistinct", TestCountDistinct},
	} {
		t.Run(tc.name, tc.fn)
	}
}
