package robustness

import (
	"math"
	"testing"

	"rqp/internal/plan"
)

func mkNode(est, actual float64, kids ...plan.Node) plan.Node {
	n := &plan.FilterNode{}
	n.Prop.EstRows = est
	n.Prop.SetActualRows(actual)
	n.Kids = kids
	n.Title = "n"
	return n
}

func TestMetric1(t *testing.T) {
	// |100-200|/200 + |50-50|/50 = 0.5
	root := mkNode(100, 200, mkNode(50, 50))
	if got := Metric1(root); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Metric1 = %v, want 0.5", got)
	}
	// Unexecuted nodes (actual = -1) are skipped.
	root2 := mkNode(100, -1)
	if Metric1(root2) != 0 {
		t.Error("unexecuted nodes must be skipped")
	}
}

func TestMetric2And3(t *testing.T) {
	plans := []plan.Node{mkNode(100, 200), mkNode(10, 100)}
	want := 0.5 + 0.9
	if got := Metric2(plans); math.Abs(got-want) > 1e-9 {
		t.Errorf("Metric2 = %v, want %v", got, want)
	}
	if got := Metric3(200, []float64{100, 300, 150}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Metric3 = %v, want 0.5", got)
	}
	if Metric3(100, []float64{100}) != 0 {
		t.Error("choosing the best plan should score 0")
	}
	if Metric3(0, nil) != 0 {
		t.Error("degenerate Metric3 should be 0")
	}
}

func TestSmoothness(t *testing.T) {
	if s := Smoothness([]float64{5, 5, 5, 5}); s != 0 {
		t.Errorf("flat series should have S=0, got %v", s)
	}
	rough := Smoothness([]float64{1, 100, 1, 100})
	smooth := Smoothness([]float64{50, 51, 49, 50})
	if rough <= smooth {
		t.Errorf("rough %v should exceed smooth %v", rough, smooth)
	}
	if Smoothness(nil) != 0 {
		t.Error("empty series should be 0")
	}
}

func TestCQ(t *testing.T) {
	// both off by 50% relative error → geomean 0.5
	got := CQ([]float64{50, 150}, []float64{100, 100})
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CQ = %v, want 0.5", got)
	}
	// perfect estimates floor at epsilon, not zero
	if CQ([]float64{100}, []float64{100}) <= 0 {
		t.Error("perfect CQ should be tiny but positive")
	}
	if CQ(nil, nil) != 0 {
		t.Error("empty CQ should be 0")
	}
}

func TestQErrorSummary(t *testing.T) {
	maxQ, geoQ := QErrorSummary([]float64{10, 1000}, []float64{100, 100})
	if maxQ != 10 {
		t.Errorf("max q-error = %v, want 10", maxQ)
	}
	if math.Abs(geoQ-10) > 1e-9 { // sqrt(10*10)
		t.Errorf("geo q-error = %v, want 10", geoQ)
	}
}

func TestExtrinsicVariability(t *testing.T) {
	if v := ExtrinsicVariability(150, 100); math.Abs(v-0.5) > 1e-9 {
		t.Errorf("extrinsic = %v, want 0.5", v)
	}
	if ExtrinsicVariability(90, 100) != 0 {
		t.Error("beating the ideal clamps to 0")
	}
	if ExtrinsicVariability(100, 0) != 0 {
		t.Error("degenerate ideal should be 0")
	}
}

func TestSummarize(t *testing.T) {
	q := Summarize([]float64{1, 2, 3, 4, 5})
	if q.Min != 1 || q.Median != 3 || q.Max != 5 {
		t.Errorf("quartiles wrong: %+v", q)
	}
	if q.Q1 != 2 || q.Q3 != 4 {
		t.Errorf("q1/q3 wrong: %+v", q)
	}
	if Summarize(nil) != (Quartiles{}) {
		t.Error("empty summary should be zero")
	}
	if q.String() == "" {
		t.Error("string render empty")
	}
}

func TestSpeedupSeries(t *testing.T) {
	ids := []string{"a", "b", "c"}
	base := []float64{100, 100, 100}
	treat := []float64{50, 100, 200}
	series, regressions := SpeedupSeries(ids, base, treat, 1.0)
	if regressions != 1 {
		t.Errorf("regressions = %d, want 1", regressions)
	}
	if series[0].ID != "a" || series[2].ID != "c" {
		t.Errorf("ordering wrong: %+v", series)
	}
	if series[0].Ratio != 2 || series[2].Ratio != 0.5 {
		t.Errorf("ratios wrong: %+v", series)
	}
}

func TestScatter(t *testing.T) {
	pts := Scatter([]string{"a"}, []float64{10}, []float64{5})
	if len(pts) != 1 || pts[0].X != 10 || pts[0].Y != 5 {
		t.Errorf("scatter wrong: %+v", pts)
	}
}

func TestTractorPull(t *testing.T) {
	levels := [][]float64{
		{10, 11, 10},    // stable
		{20, 21, 22},    // stable
		{30, 300, 3000}, // wildly variable -> fails here
	}
	score, detail := TractorPull(levels, 0.5, 1e6)
	if score != 2 {
		t.Errorf("score = %d, want 2 (detail %v)", score, detail)
	}
	if len(detail) != 3 {
		t.Errorf("detail rows = %d", len(detail))
	}
	// mean ceiling also stops the pull
	score2, _ := TractorPull([][]float64{{10}, {2000}}, 10, 100)
	if score2 != 1 {
		t.Errorf("mean ceiling score = %d, want 1", score2)
	}
}

func TestAdvisorRobustness(t *testing.T) {
	if got := AdvisorRobustness(100, []float64{110, 150, 90}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("advisor robustness = %v, want 0.5", got)
	}
	if AdvisorRobustness(100, []float64{90, 80}) != 0 {
		t.Error("improvements should clamp to 0")
	}
}

func TestPerfP(t *testing.T) {
	if PerfP(10, 15) != 5 || PerfP(15, 10) != 5 {
		t.Error("PerfP should be absolute difference")
	}
}
