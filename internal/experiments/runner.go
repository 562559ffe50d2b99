package experiments

import (
	"fmt"
	"reflect"

	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/obs"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// unlimited is a workspace budget no statement of the experiments exceeds.
const unlimited = 1 << 30

// defaults is the configuration experiments start from and set what they
// vary in: the optimizer's default options with an unlimited workspace, the
// classic policy.
func defaults() core.Config {
	k := core.Config{Options: opt.DefaultOptions()}
	k.MemBudgetRows = unlimited
	return k
}

// runsUnder is the fields of core.Config a plan runs under, the ones execute
// honours: MemBudgetRows, inside Options, both prices spills and sizes the
// workspace broker.
var runsUnder = map[string]bool{"Options": true, "Policy": true, "DOP": true, "RuntimeFilters": true,
	"Shards": true, "ShuffleForce": true, "ShardNoHotSplit": true, "ShuffleTransport": true}

// stmt is one statement: SQL text with its binds, or a plan built by hand,
// which the runner marks and executes as it is.
type stmt struct {
	sql    string
	params []types.Value
	root   plan.Node
}

// sqls is texts as statements without binds.
func sqls(texts ...string) (out []stmt) {
	for _, t := range texts {
		out = append(out, stmt{sql: t})
	}
	return out
}

// run is what statements executed under one configuration left behind. Its
// record holds the spill, runtime-filter, columnar and shuffle counters of
// all of them, as exec.Context.Record fills them.
type run struct {
	units  int64       // cost in storage.ClockScale sub-units
	rows   []types.Row // every statement's rows, in order
	hash   uint64      // types.HashRows(rows)
	plans  []plan.Node // the executed plans: every node's estimated and actual rows
	reopts int
	dop    int // the context's DOP after the last statement
	rec    obs.QueryRecord
}

func (r *run) cost() float64 { return float64(r.units) / storage.ClockScale }

// execute is the one place an experiment's statements are parsed, bound,
// planned, marked and executed. All of stmts run in order on one context —
// one clock, one workspace broker, one set of counters — each under k.Policy
// by a fresh optimizer over cat with k.Options, through the engine's
// policy-to-executor code. A field of k that execute does not run a plan
// under is an error, not ignored.
func execute(cat *catalog.Catalog, k core.Config, stmts ...stmt) (*run, error) {
	v := reflect.ValueOf(k)
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; !runsUnder[name] && !v.Field(i).IsZero() {
			return nil, fmt.Errorf("execute: core.Config.%s is set, but statements do not run under it here", name)
		}
	}
	ctx := exec.NewContext()
	ctx.Mem = exec.NewMemBroker(k.MemBudgetRows)
	ctx.DOP = k.DOP
	r := &run{}
	for _, s := range stmts {
		o := opt.New(cat)
		o.Opt = k.Options
		ctx.Params = s.params
		root := s.root
		if root == nil {
			bq, err := bind(cat, s.sql)
			if err != nil {
				return nil, err
			}
			if prog := k.Policy.Progressive(o); prog != nil {
				ctx.DOP = 0 // POP runs on one worker, as the engine runs it
				res, err := prog.Execute(bq, ctx)
				if err != nil {
					return nil, err
				}
				r.rows, r.reopts = append(r.rows, res.Rows...), r.reopts+res.Reopts
				continue
			}
			if root, _, err = k.Policy.Plan(o, bq, s.params); err != nil {
				return nil, err
			}
		}
		core.ArmContext(ctx, k, core.MarkPlan(o, k, root))
		rows, err := exec.Run(root, ctx)
		if err != nil {
			return nil, err
		}
		r.rows, r.plans = append(r.rows, rows...), append(r.plans, root)
	}
	r.units, r.hash, r.dop = ctx.Clock.UnitsScaled(), types.HashRows(r.rows), ctx.DOP
	ctx.Record(&r.rec)
	return r, nil
}

// bind parses and binds one SELECT: the bound query the optimizer's
// enumerations and plan diagrams start from.
func bind(cat *catalog.Catalog, text string) (*plan.Query, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", text)
	}
	return plan.Bind(sel, cat)
}

// same reports whether got returned ref's rows: the same row hash. Where
// float sums may reassociate — a run that spilled, or aggregated at DOP > 1 —
// the rows may instead agree in order with every float at 6 significant
// digits; such a cell is counted in *floatCanon.
func same(floatCanon *int, ref, got *run) bool {
	if got.hash == ref.hash {
		return true
	}
	if !ref.reassociates() && !got.reassociates() || len(got.rows) != len(ref.rows) {
		return false
	}
	canon := func(v types.Value) types.Value {
		if v.K == types.KindFloat {
			v.F, v.S = 0, fmt.Sprintf("%.6g", v.F)
		}
		return v
	}
	for i, row := range got.rows {
		if len(row) != len(ref.rows[i]) {
			return false
		}
		for j, v := range row {
			if canon(v) != canon(ref.rows[i][j]) {
				return false
			}
		}
	}
	*floatCanon++
	return true
}

// reassociates reports whether the run's float sums may have been added in
// another order than one worker's unspilled pass adds them.
func (r *run) reassociates() bool {
	if r.rec.SpillParts > 0 {
		return true
	}
	agg := false
	for _, root := range r.plans {
		plan.Walk(root, func(n plan.Node) {
			_, ok := n.(*plan.AggNode)
			agg = agg || ok
		})
	}
	return agg && r.dop > 1
}

// axis is one dimension of a sweep: its values, and how a value sets a
// cell's configuration (nil where the value picks the data rather than a
// field).
type axis struct {
	name   string
	values []float64
	set    func(k *core.Config, v float64)
}

// sweep calls cell at every point of the axes' product, the first axis
// outermost, with base set by that point's values (at).
func sweep(base core.Config, axes []axis, cell func(k core.Config, at []float64) error) error {
	at := make([]float64, len(axes))
	var walk func(i int, k core.Config) error
	walk = func(i int, k core.Config) error {
		if i == len(axes) {
			return cell(k, at)
		}
		for _, v := range axes[i].values {
			at[i] = v
			kv := k
			if axes[i].set != nil {
				axes[i].set(&kv, v)
			}
			if err := walk(i+1, kv); err != nil {
				return fmt.Errorf("%s=%g: %w", axes[i].name, v, err)
			}
		}
		return nil
	}
	return walk(0, base)
}
