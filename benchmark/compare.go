package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better). A metric that must not move is worse
// by however far it moved.
func worseBy(m metricSpec, a, b float64) float64 {
	switch {
	case m.BothWays:
		return math.Abs(ratio(b-a, a))
	case m.Better == "higher":
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// verdict applies the rule of the choosing-metrics guide to one pairing:
// a metric whose own passes lie further apart than its bound on either side
// cannot resolve a difference of that size.
func verdict(m metricSpec, worse, spreadA, spreadB float64) string {
	switch {
	case spreadA > m.Bound || spreadB > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, a = reference and b = candidate, and returns 1 if a gated
// metric is worse than its bound; a recorded one only says so.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareReports(a, b, stdout, stderr)
}

func compareReports(a, b *report, stdout, stderr io.Writer) int {
	if a.Meta.Seed != b.Meta.Seed || a.Meta.Scale != b.Meta.Scale || a.Meta.Stmts != b.Meta.Stmts || a.Meta.Seconds != b.Meta.Seconds || len(a.Meta.Workloads) != len(b.Meta.Workloads) {
		// Another seed sends other statements, so counts and cost differ by
		// themselves. live_heap_mb is process-wide, so a five-workload run
		// and a single-workload run do not compare either.
		fmt.Fprintf(stderr, "benchmark: the two runs were not made alike (seed %d/%d, scale %g/%g, stmts %g/%g, seconds %g/%g, workloads %d/%d)\n",
			a.Meta.Seed, b.Meta.Seed, a.Meta.Scale, b.Meta.Scale, a.Meta.Stmts, b.Meta.Stmts, a.Meta.Seconds, b.Meta.Seconds, len(a.Meta.Workloads), len(b.Meta.Workloads))
		return 2
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	status := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stderr, "benchmark: workload %s is missing from the second file\n", wa.Name)
			return 2
		}
		for _, m := range endToEnd {
			worse := worseBy(m, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name])
			v := verdict(m, worse, wa.Spread[m.Name], wb.Spread[m.Name])
			if v == "worse" && !m.Recorded {
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, wa.EndToEnd[m.Name], wb.EndToEnd[m.Name], 100*worse, 100*m.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			status = 1
			fmt.Fprintf(stdout, "%-14s %-20s %14d %14d %8s %6s  worse\n", wa.Name, "failed", wa.Failed, wb.Failed, "", "0")
		}
	}
	return status
}
