package adaptive

import (
	"testing"

	"rqp/internal/exec"
)

// TestRowLifetime re-runs the adaptive-execution tests with exec's
// row-lifetime harness on (every operator's previous row is overwritten on
// its next call), so POP's materialized intermediates, Rio's runs and the
// eddies cannot depend on a producer leaving a returned row alone.
func TestRowLifetime(t *testing.T) {
	exec.SetRowPoison(true)
	defer exec.SetRowPoison(false)
	for _, tc := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"ProgressivePoliciesAgreeOnResults", TestProgressivePoliciesAgreeOnResults},
		{"ProgressiveThreeWayJoin", TestProgressiveThreeWayJoin},
		{"ProgressiveWithAggregation", TestProgressiveWithAggregation},
		{"CheckedReoptsOnlyOnViolation", TestCheckedReoptsOnlyOnViolation},
		{"LEOFeedbackLoopConverges", TestLEOFeedbackLoopConverges},
		{"RioChoosesRobustOrMinimaxPlan", TestRioChoosesRobustOrMinimaxPlan},
		{"EddyBeatsBadStaticOrder", TestEddyBeatsBadStaticOrder},
		{"EddyTracksDrift", TestEddyTracksDrift},
		{"LotteryEddyCorrect", TestLotteryEddyCorrect},
	} {
		t.Run(tc.name, tc.fn)
	}
}
