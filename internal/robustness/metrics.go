// Package robustness implements every metric the Dagstuhl report's breakout
// sessions define: the cardinality-error risk metrics Metric1/2/3 (Nica et
// al.), the performance P(q) and smoothness S(Q) metrics (Sattler et al.),
// the geometric-mean cardinality error C(Q), q-error summaries (Moerkotte
// et al.), intrinsic/extrinsic variability (Agrawal et al.), the tractor-
// pull score (Kersten et al.), and the summary statistics behind the POP
// figures (quartile boxes, ordered speedups, scatter pairs).
package robustness

import (
	"fmt"
	"math"
	"sort"

	"rqp/internal/plan"
	"rqp/internal/stats"
)

// Metric1 sums, over all physical operators of an *executed* plan, the
// relative cardinality estimation error |est − actual| / actual.
func Metric1(root plan.Node) float64 {
	total := 0.0
	plan.Walk(root, func(n plan.Node) {
		p := n.Props()
		act := p.ActualRows()
		if act < 0 {
			return
		}
		total += math.Abs(p.EstRows-act) / math.Max(act, 1)
	})
	return total
}

// Metric2 sums Metric1 over all enumerated (and executed) plans — the
// "errors the optimizer was exposed to while pruning" variant.
func Metric2(roots []plan.Node) float64 {
	total := 0.0
	for _, r := range roots {
		total += Metric1(r)
	}
	return total
}

// Metric3 compares the best runtime among all enumerated plans against the
// runtime of the plan the optimizer actually chose:
// |RunTimeOpt − RunTimeBest| / RunTimeBest.
func Metric3(runtimeChosen float64, runtimesAll []float64) float64 {
	if len(runtimesAll) == 0 || runtimeChosen <= 0 {
		return 0
	}
	best := runtimesAll[0]
	for _, r := range runtimesAll[1:] {
		if r < best {
			best = r
		}
	}
	return math.Abs(best-runtimeChosen) / runtimeChosen
}

// PerfP is Sattler et al.'s per-query performance metric: the divergence of
// the measured execution time from the optimal time, P(q) = |O(q) − E(q)|.
func PerfP(optimal, measured float64) float64 {
	return math.Abs(optimal - measured)
}

// Smoothness is S(Q): the coefficient of variation of the per-query
// performance metric over a parameterized query family. Lower is smoother
// (more robust).
func Smoothness(perf []float64) float64 {
	if len(perf) == 0 {
		return 0
	}
	mean := 0.0
	for _, p := range perf {
		mean += p
	}
	mean /= float64(len(perf))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, p := range perf {
		varsum += (p - mean) * (p - mean)
	}
	return math.Sqrt(varsum/float64(len(perf))) / mean
}

// CQ is the geometric mean of relative cardinality errors |a−e|/a over a
// query set (errors of exactly 0 are floored at epsilon so the geomean
// stays defined, as the session's definition implies).
func CQ(estimated, actual []float64) float64 {
	if len(estimated) != len(actual) || len(estimated) == 0 {
		return 0
	}
	const eps = 1e-6
	logSum := 0.0
	for i := range estimated {
		a := math.Max(actual[i], 1)
		e := math.Abs(actual[i]-estimated[i]) / a
		if e < eps {
			e = eps
		}
		logSum += math.Log(e)
	}
	return math.Exp(logSum / float64(len(estimated)))
}

// QErrorSummary reports max and geometric-mean q-error over pairs.
func QErrorSummary(estimated, actual []float64) (maxQ, geoQ float64) {
	if len(estimated) == 0 {
		return 0, 0
	}
	logSum := 0.0
	for i := range estimated {
		q := stats.QError(estimated[i], actual[i])
		if q > maxQ {
			maxQ = q
		}
		logSum += math.Log(q)
	}
	return maxQ, math.Exp(logSum / float64(len(estimated)))
}

// ExtrinsicVariability implements the end-to-end robustness definition:
// divergence between the produced plan's execution time and the ideal
// plan's time in the same environment — the variability the system is
// responsible for (intrinsic variability, the ideal time itself, is the
// cost any system must pay).
func ExtrinsicVariability(producedTime, idealTime float64) float64 {
	if idealTime <= 0 {
		return 0
	}
	return math.Max(0, producedTime-idealTime) / idealTime
}

// Quartiles is the five-number summary backing Figure 1's box ranges.
type Quartiles struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary.
func Summarize(xs []float64) Quartiles {
	if len(xs) == 0 {
		return Quartiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		frac := pos - float64(i)
		if i+1 < len(s) {
			return s[i]*(1-frac) + s[i+1]*frac
		}
		return s[i]
	}
	return Quartiles{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1]}
}

// String renders the summary as a Figure-1-style row.
func (q Quartiles) String() string {
	return fmt.Sprintf("min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f", q.Min, q.Q1, q.Median, q.Q3, q.Max)
}

// Speedup is one Figure-2 data point.
type Speedup struct {
	ID    string
	Ratio float64 // baseline / treated; < 1 is a regression
}

// SpeedupSeries computes per-query speedups ordered by decreasing
// improvement (Figure 2) and counts regressions below threshold.
func SpeedupSeries(ids []string, baseline, treated []float64, regressionBelow float64) (series []Speedup, regressions int) {
	for i := range ids {
		r := math.Inf(1)
		if treated[i] > 0 {
			r = baseline[i] / treated[i]
		}
		series = append(series, Speedup{ID: ids[i], Ratio: r})
		if r < regressionBelow {
			regressions++
		}
	}
	sort.SliceStable(series, func(i, j int) bool { return series[i].Ratio > series[j].Ratio })
	return series, regressions
}

// ScatterPoint is one Figure-3 pair (x = baseline time, y = treated time).
type ScatterPoint struct {
	ID   string
	X, Y float64
}

// Scatter pairs the two series.
func Scatter(ids []string, baseline, treated []float64) []ScatterPoint {
	out := make([]ScatterPoint, len(ids))
	for i := range ids {
		out[i] = ScatterPoint{ID: ids[i], X: baseline[i], Y: treated[i]}
	}
	return out
}

// TractorPull scores an escalating workload: levels are attempted in order
// and the run stops when the response-time coefficient of variation within
// a level exceeds maxCV or a level's mean response exceeds maxMean. The
// score is the number of levels survived — "how much weight the tractor
// pulled".
func TractorPull(levels [][]float64, maxCV, maxMean float64) (score int, detail []string) {
	for li, times := range levels {
		if len(times) == 0 {
			break
		}
		mean := 0.0
		for _, t := range times {
			mean += t
		}
		mean /= float64(len(times))
		cv := Smoothness(times)
		detail = append(detail, fmt.Sprintf("level %d: mean=%.1f cv=%.3f", li+1, mean, cv))
		if cv > maxCV || mean > maxMean {
			return li, detail
		}
		score = li + 1
	}
	return score, detail
}

// AdvisorRobustness is Graefe et al.'s physical-design-advisor metric: the
// maximum degradation of perturbed workloads relative to the design-time
// workload, max_i (Ti − T0) / T0.
func AdvisorRobustness(t0 float64, perturbed []float64) float64 {
	worst := 0.0
	for _, ti := range perturbed {
		if d := (ti - t0) / t0; d > worst {
			worst = d
		}
	}
	return worst
}
