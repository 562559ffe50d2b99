package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// contract mirrors /BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesHarness holds BENCHMARK.json and the harness's own
// tables together: same workloads, same metrics, units, directions, and
// bounds on the gated ones (per_layer carries none).
func TestContractMatchesHarness(t *testing.T) {
	c := loadContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q (or their why differs)", i, c.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []contractMetric, want []metricSpec, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (bounds && g.Bound != m.Bound) || (!bounds && g.Bound != 0) {
				t.Errorf("%s %d: BENCHMARK.json %+v, harness %s %s %s %g", kind, i, g, m.Name, m.Unit, m.Better, m.Bound)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
		}
	}
	check("end_to_end", c.EndToEnd, gated(), true)
	check("per_layer", c.PerLayer, append(recorded(), perLayer...), false)
}

// smoke runs the harness in process at a tiny size and returns its output,
// the parsed result file and the output directory.
func smoke(t *testing.T, args ...string) (string, *report, string) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the two-client workloads refuse to run on fewer than two CPUs")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "0.25", "-passes", "1", "-stmts", "0.01", "-seconds", "0.02", "-outdir", dir}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	rep, err := readReport(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), rep, dir
}

func lastLine(t *testing.T, out string) contractLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var cl contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cl); err != nil {
		t.Fatalf("last line is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	return cl
}

func checkMetrics(t *testing.T, what string, got map[string]metricValue, want []metricSpec, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is missing", what, m.Name)
		case v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v %q, want a finite value in %q", what, m.Name, v.Value, v.Unit, m.Unit)
		case nonZero && v.Value <= 0:
			t.Errorf("%s: %s = %v, an end-to-end metric is never 0", what, m.Name, v.Value)
		}
	}
}

// TestSmokeAllWorkloads runs the five workloads together, traced, and
// checks that every metric of both families is printed once per workload.
func TestSmokeAllWorkloads(t *testing.T) {
	out, rep, dir := smoke(t, "-seed", "1", "-trace", "1")
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported", len(rep.Workloads))
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		rows := regexp.MustCompile(`(?m)^  `+regexp.QuoteMeta(m.Name)+` `).FindAllString(out, -1)
		if len(rows) != len(workloads) {
			t.Errorf("%s printed %d times for %d workloads", m.Name, len(rows), len(workloads))
		}
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		spans, err := os.ReadFile(filepath.Join(dir, "trace-"+wr.Name+".json"))
		if err != nil || !bytes.Contains(spans, []byte(`"server.roundtrip"`)) {
			t.Errorf("%s: span file missing or without round-trip spans: %v", wr.Name, err)
		}
	}
}

// TestSmokeContractLine runs each workload alone, as the driver does, on a
// second seed, and checks the last line of output in both modes.
func TestSmokeContractLine(t *testing.T) {
	for _, w := range workloads {
		out, _, _ := smoke(t, "-workload", w.name, "-seed", "2", "-trace", "0")
		cl := lastLine(t, out)
		if !cl.Correct || cl.Failed != 0 || cl.Attempted < 1 {
			t.Errorf("%s: %+v", w.name, cl)
		}
		checkMetrics(t, w.name, cl.Metrics, gated(), true)
	}
	out, _, _ := smoke(t, "-workload", "point_lookup", "-seed", "2", "-trace", "1")
	checkMetrics(t, "point_lookup traced", lastLine(t, out).Metrics, append(recorded(), perLayer...), false)
}

// TestCountsRepeat: on the single-client workloads the simulated cost is a
// pure function of the seed, and allocations repeat to within their 2% bound even on passes of 40 statements.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"analytic_fast", "htap_mixed"} {
		_, a, _ := smoke(t, "-workload", name, "-seed", "3")
		_, b, _ := smoke(t, "-workload", name, "-seed", "3")
		ea, eb := a.Workloads[0].EndToEnd, b.Workloads[0].EndToEnd
		if ea["cost_units_per_stmt"] != eb["cost_units_per_stmt"] {
			t.Errorf("%s: cost %v then %v on the same seed", name, ea["cost_units_per_stmt"], eb["cost_units_per_stmt"])
		}
		if d := math.Abs(ea["allocs_per_stmt"]-eb["allocs_per_stmt"]) / ea["allocs_per_stmt"]; d > 0.02 {
			t.Errorf("%s: allocs/stmt %v then %v on the same seed", name, ea["allocs_per_stmt"], eb["allocs_per_stmt"])
		}
	}
}

// TestOracleCatchesCorruption: a wrong checksum fails the warm-up round, a
// wrong row count fails a timed pass, and a wrong model price fails
// read-your-writes.
func TestOracleCatchesCorruption(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs for two clients")
	}
	w := findWorkload("wide_result")
	base := w.base(1, 0.25, 0)
	orc, err := buildOracle(w, 0.25, base)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := setup(w, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if ps := runPass(w, in, base, orc.refs, len(base), true); ps.Failed != 0 {
		t.Fatalf("clean references: %d failed: %s", ps.Failed, ps.FirstErr)
	}
	orc.refs[0].Sum ^= 1
	if ps := runPass(w, in, base, orc.refs, len(base), true); ps.Failed != 1 {
		t.Errorf("corrupt checksum: %d failed, want 1", ps.Failed)
	}
	if ps := runPass(w, in, base, orc.refs, len(base), false); ps.Failed != 0 {
		t.Errorf("timed passes do not recompute checksums, yet %d failed", ps.Failed)
	}
	orc.refs[1].Rows++
	if ps := runPass(w, in, base, orc.refs, len(base), false); ps.Failed != 1 {
		t.Errorf("corrupt row count: %d failed in a timed pass, want 1", ps.Failed)
	}

	h := findWorkload("htap_mixed")
	hbase := h.base(1, 0.25, htapCycle)
	horc, err := buildOracle(h, 0.25, hbase)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hbase {
		if hbase[i].model != nil && hbase[i].model.rows == 1 {
			hbase[i].model = &modelCheck{rows: 1, price: hbase[i].model.price + 1}
			break
		}
	}
	hin, _, err := setup(h, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	defer hin.close()
	if ps := runPass(h, hin, hbase, horc.refs, len(hbase), true); ps.Failed != 1 {
		t.Errorf("corrupt model price: %d failed, want 1 (%s)", ps.Failed, ps.FirstErr)
	}
	horc.prices[0] += 1000 // key 0 is deleted in the first cycle, key 300 is not
	if err := checkTotals(hin, horc, hbase); err != nil {
		t.Errorf("closing totals against the true model: %v", err)
	}
	horc.prices[300] += 1000
	if err := checkTotals(hin, horc, hbase); err == nil {
		t.Error("closing totals did not notice a model that is 1000 off")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(metric string, val, spread float64) *report {
		wr := workloadResult{Name: "w", EndToEnd: map[string]float64{}, Spread: map[string]float64{}}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = 100
		}
		wr.EndToEnd[metric], wr.Spread[metric] = val, spread
		return &report{Meta: meta{Workloads: []string{"w"}}, Workloads: []workloadResult{wr}}
	}
	for _, tc := range []struct {
		metric      string
		val, spread float64
		want        string
		code        int
	}{
		{"setup_s", 101, 0, "ok", 0}, {"setup_s", 150, 0, "worse", 1}, {"setup_s", 150, 0.9, "unresolved", 0}, {"setup_s", 50, 0, "ok", 0},
		// A recorded metric says worse without failing the comparison.
		{"qps", 200, 0, "ok", 0}, {"qps", 50, 0, "worse", 0},
		// The simulated cost must not move: cheaper plans are flagged like dearer ones.
		{"cost_units_per_stmt", 90, 0, "worse", 1}, {"cost_units_per_stmt", 110, 0, "worse", 1},
	} {
		var out, errs bytes.Buffer
		code := compareReports(mk(tc.metric, 100, 0), mk(tc.metric, tc.val, tc.spread), &out, &errs)
		line := regexp.MustCompile(`(?m)^w +` + tc.metric + ` .*$`).FindString(out.String())
		if code != tc.code || !strings.HasSuffix(line, tc.want) {
			t.Errorf("%s 100 -> %v (spread %v): exit %d, row %q, want %s", tc.metric, tc.val, tc.spread, code, line, tc.want)
		}
	}

	// Runs on different seeds sent different statements.
	var out, errs bytes.Buffer
	other := mk("qps", 100, 0)
	other.Meta.Seed = 7
	if code := compareReports(mk("qps", 100, 0), other, &out, &errs); code != 2 || !strings.Contains(errs.String(), "seed") {
		t.Errorf("seed 0 against seed 7: exit %d, %q, want a refusal", code, errs.String())
	}
}

// TestStableSurface: later PRs delete code (ROADMAP item 2) and may not
// edit the benchmark, so the harness must not name what they will delete.
func TestStableSurface(t *testing.T) {
	deny := regexp.MustCompile(`\.Vec\b|plan\.Mark|PlanShuffles|exec\.Build\b|exec\.Operator\b|BatchOperator|\.Shards\b|ShuffleTransport`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := deny.Find(src); m != nil {
			t.Errorf("%s names %q, which is outside the stable surface", f, m)
		}
	}
}
