package experiments

import (
	"fmt"

	"rqp/internal/adaptive"
	"rqp/internal/catalog"
	"rqp/internal/core"
	"rqp/internal/exec"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/sql"
	"rqp/internal/storage"
	"rqp/internal/types"
)

// policy is how the runner turns a bound statement into executed rows.
type policy uint8

const (
	classic policy = iota // optimize once, run the plan
	static                // adaptive.Progressive without re-optimization
	pop                   // POP: checked re-optimization, 5 units a re-plan
	rio                   // Rio bounding boxes, uncertainty factor 6
)

func (p policy) String() string { return [...]string{"classic", "static", "pop", "rio"}[p] }

// knobs is everything a statement runs under. Experiments start from
// defaults() and set what they vary.
type knobs struct {
	// opt is the optimizer's: opt.Columnar admits ColScan, and
	// opt.MemBudgetRows both prices spills and sizes the workspace broker.
	opt        opt.Options
	dop        int
	rf         bool             // runtime join filters
	shards     int              // logical shards (0 or 1: unsharded)
	force      plan.ShuffleMode // shuffle exchange forced on every sharded join
	noHotSplit bool
	transport  exec.ShuffleTransport // nil: in-process exchanges
	policy     policy
}

// unlimited is a workspace budget no statement of the experiments exceeds.
const unlimited = 1 << 30

func defaults() knobs {
	k := knobs{opt: opt.DefaultOptions()}
	k.opt.MemBudgetRows = unlimited
	return k
}

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

// run is what statements executed under one set of knobs left behind. Its
// context holds the spill, runtime-filter, columnar and shuffle counters.
type run struct {
	units  int64       // cost in storage.ClockScale sub-units
	rows   []types.Row // every statement's rows, in order
	hash   uint64      // types.HashRows(rows)
	plans  []plan.Node // the executed plans: every node's estimated and actual rows
	reopts int
	ctx    *exec.Context
}

func (r *run) cost() float64 { return float64(r.units) / storage.ClockScale }

// execute is the one place an experiment's statements are parsed, bound,
// optimized, marked and executed. All of stmts run in order on one context —
// one clock, one workspace broker, one set of counters — each planned by a
// fresh optimizer over cat with k.opt.
func execute(cat *catalog.Catalog, k knobs, stmts ...stmt) (*run, error) {
	ctx := exec.NewContext()
	ctx.Mem = exec.NewMemBroker(k.opt.MemBudgetRows)
	ctx.DOP = k.dop
	cfg := core.Config{Options: k.opt, RuntimeFilters: k.rf, Shards: k.shards, ShuffleForce: k.force,
		ShardNoHotSplit: k.noHotSplit, ShuffleTransport: k.transport}
	r := &run{ctx: ctx}
	for _, s := range stmts {
		o := opt.New(cat)
		o.Opt = k.opt
		ctx.Params = s.params
		root := s.root
		if root == nil {
			bq, err := bind(cat, s.sql)
			if err != nil {
				return nil, err
			}
			switch k.policy {
			case static, pop:
				p := &adaptive.Progressive{Opt: o, Policy: adaptive.Static}
				if k.policy == pop {
					p.Policy, p.ReoptCharge = adaptive.Checked, 5
				}
				res, err := p.Execute(bq, ctx)
				if err != nil {
					return nil, err
				}
				r.rows, r.reopts = append(r.rows, res.Rows...), r.reopts+res.Reopts
				continue
			case rio:
				root, _, err = (&adaptive.Rio{Opt: o, UncertaintyFactor: 6}).Choose(bq, s.params)
			default:
				root, err = o.Optimize(bq, s.params)
			}
			if err != nil {
				return nil, err
			}
		}
		core.ArmContext(ctx, cfg, core.MarkPlan(o, cfg, root))
		rows, err := exec.Run(root, ctx)
		if err != nil {
			return nil, err
		}
		r.rows, r.plans = append(r.rows, rows...), append(r.plans, root)
	}
	r.units, r.hash = ctx.Clock.UnitsScaled(), types.HashRows(r.rows)
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
	if parts, _, _, _, _ := r.ctx.Spill.Snapshot(); parts > 0 {
		return true
	}
	agg := false
	for _, root := range r.plans {
		plan.Walk(root, func(n plan.Node) {
			_, ok := n.(*plan.AggNode)
			agg = agg || ok
		})
	}
	return agg && r.ctx.DOP > 1
}

// axis is one dimension of a sweep: its values, and how a value sets a
// cell's knobs (nil where the value picks the data rather than a knob).
type axis struct {
	name   string
	values []float64
	set    func(k *knobs, v float64)
}

// sweep calls cell at every point of the axes' product, the first axis
// outermost, with base's knobs set by that point's values (at).
func sweep(base knobs, axes []axis, cell func(k knobs, at []float64) error) error {
	at := make([]float64, len(axes))
	var walk func(i int, k knobs) error
	walk = func(i int, k knobs) error {
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
