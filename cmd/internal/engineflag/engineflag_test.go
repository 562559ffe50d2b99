package engineflag

import (
	"errors"
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"rqp/internal/core"
)

var (
	shell  = Defaults{}
	server = Defaults{DB: "star", MPL: 4, Cache: true}
)

func parse(t *testing.T, d Defaults, args string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, d)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return f
}

// configFields are the core.Config fields the shared flags set; mpl is
// the admitter's limit, read from one admission (0: no admitter).
type configFields struct {
	policy               core.ExecPolicy
	leo, rf, trace       bool
	mpl, memPool         int
	dop, shards, memRows int
}

func fieldsOf(cfg core.Config) configFields {
	got := configFields{
		policy: cfg.Policy, leo: cfg.LEO, rf: cfg.RuntimeFilters, trace: cfg.TraceAll,
		memPool: cfg.MemPoolRows, dop: cfg.DOP, shards: cfg.Shards, memRows: cfg.MemBudgetRows,
	}
	if cfg.Admission != nil {
		d := cfg.Admission.TryAdmit()
		cfg.Admission.Done()
		got.mpl = d.MPL
	}
	return got
}

// TestConfig maps command lines of both binaries to the core.Config fields
// the shared flags land in.
func TestConfig(t *testing.T) {
	defaultRows := core.DefaultConfig().MemBudgetRows
	cases := []struct {
		name string
		d    Defaults
		args string
		want configFields
	}{
		{"shell defaults", shell, "", configFields{memRows: defaultRows}},
		{"server defaults", server, "", configFields{mpl: 4, memRows: defaultRows}},
		{"server without a gate", server, "-mpl 0", configFields{memRows: defaultRows}},
		{"debug-addr traces", shell, "-debug-addr 127.0.0.1:0", configFields{trace: true, memRows: defaultRows}},
		{"every shared flag", shell,
			"-policy pop-eager -leo -rf -mpl 3 -mempool 900 -dop 2 -shards 4 -mem 64",
			configFields{policy: core.PolicyPOPEager, leo: true, rf: true, mpl: 3, memPool: 900, dop: 2, shards: 4, memRows: 64}},
		{"server pool under its default gate", server, "-mempool 500 -policy rio",
			configFields{policy: core.PolicyRio, mpl: 4, memPool: 500, memRows: defaultRows}},
		{"-mem 0 keeps the default budget", server, "-mem 0 -policy pop",
			configFields{policy: core.PolicyPOP, mpl: 4, memRows: defaultRows}},
	}
	for _, c := range cases {
		cfg, err := parse(t, c.d, c.args).Config()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := fieldsOf(cfg); got != c.want {
			t.Errorf("%s (%q):\n got %+v\nwant %+v", c.name, c.args, got, c.want)
		}
	}
}

// TestOpen opens the engine the flags Config does not configure: -db and
// -scale pick the catalog, -cache the plan cache, -querylog the query log
// and -debug-addr the debug server, each binary with its own defaults.
func TestOpen(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "q.jsonl")
	cases := []struct {
		name      string
		d         Defaults
		args      string
		table     string // a table the catalog must hold; "" = none at all
		cache     bool
		queryLog  bool
		debugAddr bool
	}{
		{"shell defaults", shell, "", "", false, false, false},
		{"server defaults", server, "", "fact", true, false, false},
		{"server without cache", server, "-cache=false -db tpch -scale 0.01", "lineitem", false, false, false},
		{"shell with everything", shell,
			"-cache -db star -querylog " + logPath + " -debug-addr 127.0.0.1:0", "fact", true, true, true},
	}
	for _, c := range cases {
		f := parse(t, c.d, c.args)
		cfg, err := f.Config()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		eng, closeAll, err := f.Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.table == "" {
			if n := len(eng.Cat.Tables()); n != 0 {
				t.Errorf("%s: %d tables, want none", c.name, n)
			}
		} else if _, ok := eng.Cat.Table(c.table); !ok {
			t.Errorf("%s: no table %s", c.name, c.table)
		}
		if (eng.Cache != nil) != c.cache {
			t.Errorf("%s: plan cache %v, want %v", c.name, eng.Cache != nil, c.cache)
		}
		if (eng.Cfg.QueryLog != nil) != c.queryLog {
			t.Errorf("%s: query log %v, want %v", c.name, eng.Cfg.QueryLog != nil, c.queryLog)
		}
		if eng.Cfg.TraceAll != c.debugAddr {
			t.Errorf("%s: TraceAll %v, want %v", c.name, eng.Cfg.TraceAll, c.debugAddr)
		}
		closeAll()
	}
}

// TestUsageErrors checks that command-line mistakes come back as usage
// errors (exit 2) instead of exiting, and a runtime failure does not.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		d    Defaults
		args string
		msg  string
	}{
		{shell, "-policy bogus", `unknown policy "bogus"`},
		{shell, "-mempool 10", "-mempool requires -mpl > 0"},
		{server, "-mempool 10 -mpl 0", "-mempool requires -mpl > 0"},
		{shell, "-db bogus", `unknown database "bogus"`},
		{server, "-db bogus -querylog " + filepath.Join(t.TempDir(), "q.jsonl"), `unknown database "bogus"`},
	} {
		f := parse(t, c.d, c.args)
		cfg, err := f.Config()
		if err == nil {
			_, _, err = f.Open(cfg)
		}
		if err == nil || err.Error() != c.msg {
			t.Errorf("%q: error %v, want %q", c.args, err, c.msg)
		}
		if !errors.As(err, new(usageError)) {
			t.Errorf("%q: %v is not a usage error", c.args, err)
		}
	}

	f := parse(t, shell, "-querylog "+filepath.Join(t.TempDir(), "no", "such", "dir"))
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Open(cfg); err == nil || errors.As(err, new(usageError)) {
		t.Errorf("unopenable -querylog: error %v, want a runtime error", err)
	}
}
