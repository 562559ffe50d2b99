// Command benchmark is rqp's wall-clock instrument: five workloads driven
// over loopback TCP through server.Client in a closed loop, every result
// checked against an in-process serial oracle, nine end-to-end metrics per
// workload (five of them gated by the driver) and, with -trace 1, a
// per-layer breakdown from harness spans.
// README.md in this directory is the manual; /BENCHMARK.json is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	scale      float64
	passes     int
	stmts      float64
	outdir     string
	cpuprofile string
	memprofile string
}

// Defaults of the measurement protocol; BENCHMARK.json's run_seconds
// repeats defaultSeconds.
const (
	defaultSeconds = 13
	defaultScale   = 8
	minPasses      = 3
	setupRepeats   = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	var trace int
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run one workload (default: all five, passes interleaved round-robin)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed for what the clients send: drawn keys, DML values, statement order")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "timed seconds per workload: passes of a fixed statement count run until this much is measured")
	fs.IntVar(&trace, "trace", 0, "1 = also replay a round single-client under harness spans and report the per-layer metrics")
	fs.Float64Var(&opt.scale, "scale", defaultScale, "TPC-H-lite scale (1 = 1500 orders / 6000 lineitems)")
	fs.IntVar(&opt.passes, "passes", 0, "run exactly this many timed passes instead of filling -seconds")
	fs.Float64Var(&opt.stmts, "stmts", 1, "multiplier on the frozen statements-per-pass (smoke tests only: results are not comparable)")
	fs.StringVar(&opt.outdir, "outdir", filepath.Join("benchmark", "out"), "directory for result.json, trace-<workload>.json and profiles")
	fs.StringVar(&opt.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole run to <outdir>/<name>")
	fs.StringVar(&opt.memprofile, "memprofile", "", "write an allocation profile at exit to <outdir>/<name>")
	fs.BoolVar(&compare, "compare", false, "compare two result.json files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || trace < 0 || trace > 1 || opt.scale <= 0 || opt.stmts <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	opt.trace = trace == 1

	selected := workloads
	if opt.workload != "" {
		w := findWorkload(opt.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", opt.workload)
			return 2
		}
		selected = []*workloadSpec{w}
	}
	if err := os.MkdirAll(opt.outdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if opt.cpuprofile != "" {
		f, err := os.Create(filepath.Join(opt.outdir, filepath.Base(opt.cpuprofile)))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := measure(selected, &opt, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if opt.memprofile != "" {
		if err := writeHeapProfile(filepath.Join(opt.outdir, filepath.Base(opt.memprofile))); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if err := writeJSON(filepath.Join(opt.outdir, "result.json"), rep); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printReport(stdout, rep, opt.trace)

	failed := 0
	for _, wr := range rep.Workloads {
		failed += wr.Failed
		for _, e := range wr.Errors {
			fmt.Fprintf(stderr, "FAIL %s: %s\n", wr.Name, e)
		}
	}
	if opt.workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object; -trace picks which family of metrics it carries.
		wr := rep.Workloads[0]
		line := contractLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
		if opt.trace {
			for _, m := range recorded() {
				line.Metrics[m.Name] = metricValue{Value: wr.EndToEnd[m.Name], Unit: m.Unit}
			}
			for _, m := range perLayer {
				line.Metrics[m.Name] = metricValue{Value: wr.PerLayer[m.Name], Unit: m.Unit}
			}
		} else {
			for _, m := range gated() {
				line.Metrics[m.Name] = metricValue{Value: wr.EndToEnd[m.Name], Unit: m.Unit}
			}
		}
		b, _ := json.Marshal(line)
		fmt.Fprintln(stdout, string(b))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the driver-facing result of a single-workload run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is result.json: what -compare reads.
type report struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type meta struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	Seconds    float64  `json:"seconds"`
	Stmts      float64  `json:"stmts_multiplier"`
	Traced     bool     `json:"traced"`
	Workloads  []string `json:"workloads"`
	Started    string   `json:"started"`
}

type workloadResult struct {
	Name         string    `json:"name"`
	Clients      int       `json:"clients"`
	StmtsPerPass int       `json:"statements_per_pass"`
	PassSeconds  []float64 `json:"pass_seconds"`
	LatSamples   int       `json:"latency_samples_per_pass"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
	FailRatio    float64   `json:"fail_ratio"`
	Errors       []string  `json:"errors,omitempty"`
	// EndToEnd is the median of PerPass (for setup_s, of the run's set-ups);
	// Spread is (max-min)/median of the same values.
	EndToEnd map[string]float64   `json:"end_to_end"`
	PerPass  map[string][]float64 `json:"per_pass"`
	Spread   map[string]float64   `json:"pass_spread"`
	PerLayer map[string]float64   `json:"per_layer,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// measure runs the selected workloads: set-up, oracle and warm-up for each,
// then timed passes round-robin across workloads (A B C A B C ...) so that
// a slow stretch of the machine is shared, not given to one workload.
func measure(selected []*workloadSpec, opt *options, stderr io.Writer) (*report, error) {
	rep := &report{Meta: meta{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, Scale: opt.scale, Seconds: opt.seconds, Stmts: opt.stmts, Traced: opt.trace,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	var runners []*runner
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()
	for _, w := range selected {
		rep.Meta.Workloads = append(rep.Meta.Workloads, w.name)
		r, err := newRunner(w, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		runners = append(runners, r)
	}
	for busy := true; busy; {
		busy = false
		for _, r := range runners {
			if r.done() {
				continue
			}
			if err := r.pass(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
			busy = true
		}
	}
	for _, r := range runners {
		wr := r.result()
		if opt.trace {
			layers, err := tracedRun(r, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: traced run: %w", r.w.name, err)
			}
			wr.PerLayer = layers
		}
		for _, m := range endToEnd {
			if s := wr.Spread[m.Name]; s > m.Bound {
				fmt.Fprintf(stderr, "warning: %s %s: passes spread %.1f%% apart, wider than the %.0f%% bound\n", wr.Name, m.Name, 100*s, 100*m.Bound)
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}

// runner carries one workload through set-up, warm-up and its timed passes.
type runner struct {
	w        *workloadSpec
	opt      *options
	base     []stmt
	perPass  int
	orc      *oracle
	refS     float64
	in       *instance
	setups   []float64
	passes   []passStats
	counters layerCounters // summed over the timed passes
	timed    float64
	extra    int // statements attempted outside the timed passes
	failed   int
	errs     []string
}

func newRunner(w *workloadSpec, opt *options) (*runner, error) {
	r := &runner{w: w, opt: opt}
	r.perPass = int(float64(w.perPass) * opt.stmts)
	if w.stateful {
		r.perPass -= r.perPass % htapCycle
		if r.perPass < htapCycle {
			r.perPass = htapCycle
		}
	}
	r.base = w.base(opt.seed, opt.scale, r.perPass)
	if !w.stateful {
		// Every client walks whole rounds of base, so each pass executes
		// the same multiset of statements.
		round := len(r.base) * w.clients
		r.perPass = (r.perPass + round - 1) / round * round
	}

	start := time.Now()
	orc, err := buildOracle(w, opt.scale, r.base)
	if err != nil {
		return nil, err
	}
	r.orc, r.refS = orc, time.Since(start).Seconds()

	// Set-up is repeated so setup_s is a median; the last one is kept.
	// Stateful workloads set up before every pass anyway.
	if !w.stateful {
		for i := 0; i < setupRepeats; i++ {
			if err := r.fresh(); err != nil {
				return nil, err
			}
		}
	}
	// Warm-up: one untimed round that fills plan caches, and the round in
	// which every row of every result is checked against the oracle.
	warm, err := r.round(len(r.base), true)
	if err != nil {
		r.close()
		return nil, err
	}
	r.extra += warm.Statements
	return r, nil
}

// fresh replaces the served instance with a newly set-up one.
func (r *runner) fresh() error {
	r.close()
	in, secs, err := setup(r.w, r.opt.scale)
	if err != nil {
		return err
	}
	r.in = in
	r.setups = append(r.setups, secs)
	return nil
}

// round executes n statements (on a fresh instance when the workload
// writes) and folds failures into the runner.
func (r *runner) round(n int, full bool) (passStats, error) {
	if r.w.stateful {
		if err := r.fresh(); err != nil {
			return passStats{}, err
		}
	}
	ps := runPass(r.w, r.in, r.base, r.orc.refs, n, full)
	r.failed += ps.Failed
	if ps.FirstErr != "" {
		r.errs = append(r.errs, ps.FirstErr)
	}
	if r.w.stateful && ps.Failed == 0 {
		r.extra++
		if err := checkTotals(r.in, r.orc, r.base[:n]); err != nil {
			r.failed++
			r.errs = append(r.errs, err.Error())
		}
	}
	return ps, nil
}

func (r *runner) pass() error {
	var before layerCounters // a stateful pass starts on a fresh engine, at zero
	if !r.w.stateful {
		before = readCounters(r.in)
	}
	ps, err := r.round(r.perPass, false)
	if err != nil {
		return err
	}
	r.counters.addDelta(before, readCounters(r.in))
	r.passes = append(r.passes, ps)
	r.timed += ps.Seconds
	return nil
}

func (r *runner) done() bool {
	if r.opt.passes > 0 {
		return len(r.passes) >= r.opt.passes
	}
	budget := r.opt.seconds
	if r.opt.trace {
		budget /= 2 // the traced replay gets the other half
	}
	return len(r.passes) >= minPasses && r.timed >= budget
}

func (r *runner) close() {
	if r.in != nil {
		r.in.close()
		r.in = nil
	}
}

func (r *runner) result() workloadResult {
	wr := workloadResult{
		Name: r.w.name, Clients: r.w.clients, StmtsPerPass: r.perPass,
		Attempted: r.extra, Failed: r.failed, Errors: r.errs,
		EndToEnd: map[string]float64{}, PerPass: map[string][]float64{}, Spread: map[string]float64{},
	}
	wr.PerPass["setup_s"] = r.setups
	for _, ps := range r.passes {
		n := float64(ps.Statements)
		sorted := append([]float64(nil), ps.LatMS...)
		sort.Float64s(sorted)
		wr.Attempted += ps.Statements
		wr.LatSamples = len(sorted)
		wr.PassSeconds = append(wr.PassSeconds, ps.Seconds)
		for name, v := range map[string]float64{
			"qps":                 n / ps.Seconds,
			"lat_p50_ms":          bandMean(sorted, 0.40, 0.60),
			"lat_p95_ms":          quantile(sorted, 0.95),
			"cpu_ms_per_stmt":     ps.CPUMS / n,
			"allocs_per_stmt":     float64(ps.Mallocs) / n,
			"alloc_kb_per_stmt":   float64(ps.AllocBytes) / 1024 / n,
			"live_heap_mb":        float64(ps.LiveHeap) / (1 << 20),
			"cost_units_per_stmt": ps.CostUnits / n,
		} {
			wr.PerPass[name] = append(wr.PerPass[name], v)
		}
	}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = median(wr.PerPass[m.Name])
		wr.Spread[m.Name] = spread(wr.PerPass[m.Name])
	}
	wr.FailRatio = float64(wr.Failed) / float64(wr.Attempted)
	return wr
}

func printReport(w io.Writer, rep *report, traced bool) {
	m := rep.Meta
	fmt.Fprintf(w, "rqp benchmark  commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d scale=%g seconds=%g\n",
		m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.Seed, m.Scale, m.Seconds)
	for _, wr := range rep.Workloads {
		secs := make([]string, len(wr.PassSeconds))
		for i, s := range wr.PassSeconds {
			secs[i] = fmt.Sprintf("%.2f", s)
		}
		fmt.Fprintf(w, "\n%s  clients=%d statements/pass=%d passes=%d (%s s) latency samples/pass=%d\n",
			wr.Name, wr.Clients, wr.StmtsPerPass, len(wr.PassSeconds), strings.Join(secs, " "), wr.LatSamples)
		fmt.Fprintf(w, "  %-34s %14s %-8s %-7s %6s %8s\n", "metric", "median", "unit", "better", "bound", "spread")
		for _, s := range endToEnd {
			better, note := s.Better, ""
			if s.BothWays {
				better = "same"
			}
			if s.Recorded {
				note = "  recorded"
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-8s %-7s %5.0f%% %7.1f%%%s\n", s.Name, wr.EndToEnd[s.Name], s.Unit, better, 100*s.Bound, 100*wr.Spread[s.Name], note)
		}
		fmt.Fprintf(w, "  %-34s %14.6f %-8s %-7s %6s   (%d of %d)\n", "fail_ratio", wr.FailRatio, "ratio", "lower", "0", wr.Failed, wr.Attempted)
		if traced {
			for _, s := range perLayer {
				fmt.Fprintf(w, "  %-34s %14.4f %-8s %-7s\n", s.Name, wr.PerLayer[s.Name], s.Unit, s.Better)
			}
		}
	}
}
