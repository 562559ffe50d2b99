// Package experiments regenerates every figure, table and proposed
// benchmark of the Dagstuhl "Robust Query Processing" report on the rqp
// engine. Each experiment produces a Report whose rows mirror the shape of
// the corresponding artifact (quartile boxes for Figure 1, ordered speedup
// ratios for Figure 2, scatter pairs for Figure 3, metric tables for the
// breakout-session benchmarks). See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rqp/internal/catalog"
	"rqp/internal/types"
)

// Report is one experiment's output.
type Report struct {
	ID    string
	Title string
	Lines []string
	// KV holds headline numbers for programmatic assertions and
	// EXPERIMENTS.md generation.
	KV map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, KV: map[string]float64{}}
}

// Printf appends a formatted row.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Set records a headline number.
func (r *Report) Set(key string, v float64) { r.KV[key] = v }

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	if len(r.KV) > 0 {
		keys := make([]string, 0, len(r.KV))
		for k := range r.KV {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("-- headline --\n")
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s = %.4g\n", k, r.KV[k])
		}
	}
	return sb.String()
}

// Runner executes one experiment. Scale in (0, 1] shrinks the workload for
// quick runs; 1 is the full published configuration.
type Runner func(scale float64) (*Report, error)

// Registry maps experiment ids to runners.
func Registry() map[string]Runner {
	return map[string]Runner{
		"E1":  E1POPAggregate,
		"E2":  E2POPSpeedups,
		"E3":  E3POPScatter,
		"E4":  E4RiskMetrics,
		"E5":  E5Smoothness,
		"E6":  E6CardErrGeomean,
		"E7":  E7Equivalence,
		"E8":  E8TractorPull,
		"E9":  E9Extrinsic,
		"E10": E10FMT,
		"E11": E11FPT,
		"E12": E12AdvisorRobust,
		"E13": E13Cracking,
		"E14": E14TPCCH,
		"E15": E15BlackHat,
		"E16": E16GJoin,
		"E17": E17Eddy,
		"E18": E18Rio,
		// Extensions beyond the report's own artifacts (reading-list
		// techniques and the Section-1 motivation anecdote).
		"E19": E19SelfTuningHistogram,
		"E20": E20SharedScans,
		"E21": E21AutomaticDisaster,
		"E22": E22UtilityInterference,
		// The sweeps, whose points rqpbench -sweep writes.
		"E23": func(s float64) (*Report, error) { r, _, err := MemSweep(s); return r, err },
		"E24": func(s float64) (*Report, error) { r, _, err := FilterSweep(s); return r, err },
		"E25": func(s float64) (*Report, error) { r, _, err := DopSweep(s); return r, err },
		"E27": func(s float64) (*Report, error) { r, _, err := ColumnarSweep(s); return r, err },
		"E28": func(s float64) (*Report, error) { r, _, err := ShardSweep(s, 0); return r, err },
		"E29": func(s float64) (*Report, error) { r, _, err := ServerSweep(s); return r, err },
		"E30": func(s float64) (*Report, error) { r, _, err := NetShuffleSweep(s, 0); return r, err },
		"E31": E31PlanCacheRegions,
	}
}

// IDs returns the registry's experiment ids in numeric order.
func IDs() []string {
	var ids []string
	for id := range Registry() {
		ids = append(ids, id)
	}
	num := func(id string) int { n, _ := strconv.Atoi(id[1:]); return n }
	sort.Slice(ids, func(i, j int) bool { return num(ids[i]) < num(ids[j]) })
	return ids
}

// addTable creates table name with schema in cat, inserts row(i) for i in
// [0, n) and analyzes it into buckets.
func addTable(cat *catalog.Catalog, name string, schema types.Schema, n, buckets int, row func(i int) types.Row) (*catalog.Table, error) {
	t, err := cat.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		cat.Insert(nil, t, row(i))
	}
	cat.AnalyzeTable(t, buckets)
	return t, nil
}

// intCols is a schema of int columns.
func intCols(names ...string) types.Schema {
	s := make(types.Schema, len(names))
	for i, n := range names {
		s[i] = types.Column{Name: n, Kind: types.KindInt}
	}
	return s
}

func setReportBool(r *Report, k string, b bool) {
	v := 0.0
	if b {
		v = 1
	}
	r.Set(k, v)
}

func scaleInt(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 1 {
		n = 1
	}
	return n
}
