package bench

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
)

// Violation is one regression-gate failure: a metric that moved past the
// tolerance band, lost exactness, or disappeared.
type Violation struct {
	Where    string  // e.g. "mem_sweep[budget_rows=64].cost_units"
	Baseline float64 `json:",omitempty"`
	Fresh    float64 `json:",omitempty"`
	DeltaPct float64 `json:",omitempty"`
	Msg      string
}

// String renders the violation for the gate's report.
func (v Violation) String() string {
	if v.Msg != "" {
		return fmt.Sprintf("%s: %s", v.Where, v.Msg)
	}
	return fmt.Sprintf("%s: %.3f -> %.3f (%+.1f%% > tol)", v.Where, v.Baseline, v.Fresh, v.DeltaPct)
}

// Compare diffs a fresh bench result against a committed baseline and
// returns the violations, sorted by Where. Every slice section of Result is
// walked the same way, by the gate tags on its point type's fields:
//
//   - key: the point's identity. A baseline point with no fresh point of the
//     same key is missing (silent loss of coverage); a fresh-only point is
//     ignored (new coverage is not a regression).
//   - tol: may not rise more than tolPct percent over a positive baseline.
//     Improvements never fail the gate.
//   - never: a bool may not go from true to false (exactness flags), a
//     number not from 0 to nonzero (timeouts, wire traffic where there was
//     none).
//   - equal: may not change at all.
//
// An untagged field is recorded only: wall-clock fields are machine-dependent.
// A point type without a key field (Experiment's headline maps) is not gated.
//
// Comparability of the two metas is a precondition: call
// base.Meta.Comparable(fresh.Meta) first; Compare itself returns a single
// meta violation instead of a misleading metric diff when they differ, or
// when base's kind is not registered.
func Compare(base, fresh *Result, tolPct float64) []Violation {
	if kindNamed(base.Meta.Kind) == nil {
		return []Violation{{Where: "meta", Msg: fmt.Sprintf(
			"unknown kind %q: not in the gate's kind registry, its sections would be silently skipped", base.Meta.Kind)}}
	}
	if err := base.Meta.Comparable(fresh.Meta); err != nil {
		return []Violation{{Where: "meta", Msg: "not comparable: " + err.Error()}}
	}
	out := walk(base, fresh, tolPct).violations
	sort.SliceStable(out, func(i, j int) bool { return out[i].Where < out[j].Where })
	return out
}

// gateWalk is one pass of a baseline against a fresh result.
type gateWalk struct {
	tolPct     float64
	violations []Violation
	worst      float64 // largest tol delta in percent
	worstWhere string
	compared   int // tol values compared (those with a positive baseline)
}

func walk(base, fresh *Result, tolPct float64) *gateWalk {
	g := &gateWalk{tolPct: tolPct, worst: math.Inf(-1)}
	bv, fv := reflect.ValueOf(base).Elem(), reflect.ValueOf(fresh).Elem()
	for i := 0; i < bv.NumField(); i++ {
		if bv.Field(i).Kind() == reflect.Slice {
			g.section(jsonName(bv.Type().Field(i)), bv.Field(i), fv.Field(i))
		}
	}
	return g
}

// section matches base's points to fresh's by their key fields and gates
// every tagged field of each matched pair.
func (g *gateWalk) section(name string, base, fresh reflect.Value) {
	t := base.Type().Elem()
	var keys []int
	for i := 0; i < t.NumField(); i++ {
		if slices.Contains(rules(t.Field(i)), "key") {
			keys = append(keys, i)
		}
	}
	if len(keys) == 0 {
		return
	}
	where := func(p reflect.Value) string {
		kv := make([]string, len(keys))
		for j, i := range keys {
			kv[j] = fmt.Sprintf("%s=%v", jsonName(t.Field(i)), p.Field(i))
		}
		return name + "[" + strings.Join(kv, ",") + "]"
	}
	byKey := make(map[string]reflect.Value, fresh.Len())
	for i := 0; i < fresh.Len(); i++ {
		byKey[where(fresh.Index(i))] = fresh.Index(i)
	}
	for i := 0; i < base.Len(); i++ {
		b := base.Index(i)
		at := where(b)
		f, ok := byKey[at]
		if !ok {
			g.fail(at, "present in baseline, missing from fresh run")
			continue
		}
		for j := 0; j < t.NumField(); j++ {
			for _, rule := range rules(t.Field(j)) {
				g.check(rule, at+"."+jsonName(t.Field(j)), b.Field(j), f.Field(j))
			}
		}
	}
}

// check applies one gate rule to a field's baseline and fresh values.
func (g *gateWalk) check(rule, where string, b, f reflect.Value) {
	switch rule {
	case "tol":
		bn, fn := number(b), number(f)
		if bn <= 0 {
			return
		}
		delta := (fn - bn) / bn * 100
		g.compared++
		if delta > g.worst {
			g.worst, g.worstWhere = delta, where
		}
		if delta > g.tolPct+1e-12 {
			g.violations = append(g.violations, Violation{Where: where, Baseline: bn, Fresh: fn, DeltaPct: delta})
		}
	case "never":
		if b.Kind() == reflect.Bool {
			if b.Bool() && !f.Bool() {
				g.fail(where, "lost: baseline true, fresh false")
			}
		} else if number(b) == 0 && number(f) != 0 {
			g.fail(where, fmt.Sprintf("appeared: baseline 0, fresh %v", f))
		}
	case "equal":
		if !b.Equal(f) {
			g.fail(where, fmt.Sprintf("changed: %#v -> %#v", b, f))
		}
	}
}

func (g *gateWalk) fail(where, msg string) {
	g.violations = append(g.violations, Violation{Where: where, Msg: msg})
}

// number reads an int or float field as float64.
func number(v reflect.Value) float64 {
	if v.CanFloat() {
		return v.Float()
	}
	return float64(v.Int())
}

func jsonName(f reflect.StructField) string {
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return name
}

// rules lists a field's gate tag values: key, tol, never or equal.
func rules(f reflect.StructField) []string {
	if tag := f.Tag.Get("gate"); tag != "" {
		return strings.Split(tag, ",")
	}
	return nil
}

// Rerun regenerates, in-process, every section base carries, under base's
// recorded configuration: the registry's runner for each sweep section and
// the traced probes for queries.
func Rerun(base *Result) (*Result, error) {
	m := base.Meta
	fresh := &Result{Meta: NewMeta(m.Kind, m.Scale, m.DOP, m.Shards, m.Skew)}
	bv := reflect.ValueOf(base).Elem()
	for _, k := range kinds {
		if k.run == nil || sectionNamed(bv, k.section).Len() == 0 {
			continue
		}
		if _, err := k.run(m.Scale, m.Skew, fresh); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
	}
	if len(base.Queries) > 0 {
		qs, err := ProbeQueries(m.Scale, m.DOP, m.Shards)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		fresh.Queries = qs
	}
	return fresh, nil
}

// sectionNamed returns the field of Result value r whose JSON name is name.
func sectionNamed(r reflect.Value, name string) reflect.Value {
	for i := 0; i < r.NumField(); i++ {
		if jsonName(r.Type().Field(i)) == name {
			return r.Field(i)
		}
	}
	return reflect.Value{}
}

// Summary renders a human-readable gate report: the worst delta over every
// tol field of every section, plus every violation.
func Summary(base, fresh *Result, tolPct float64, violations []Violation) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "regression gate: tolerance +%.1f%% on simulated cost\n", tolPct)
	fmt.Fprintf(&sb, "baseline: kind=%s %s go=%s scale=%g seed=%d\n",
		base.Meta.Kind, base.Meta.Timestamp, base.Meta.GoVersion, base.Meta.Scale, base.Meta.Seed)
	fmt.Fprintf(&sb, "fresh:    kind=%s %s go=%s scale=%g seed=%d\n",
		fresh.Meta.Kind, fresh.Meta.Timestamp, fresh.Meta.GoVersion, fresh.Meta.Scale, fresh.Meta.Seed)
	if g := walk(base, fresh, tolPct); g.compared > 0 {
		fmt.Fprintf(&sb, "worst delta: %+.2f%% (%s) over %d gated values\n", g.worst, g.worstWhere, g.compared)
	}
	if len(violations) == 0 {
		sb.WriteString("PASS: no regressions beyond tolerance\n")
	} else {
		fmt.Fprintf(&sb, "FAIL: %d violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Fprintf(&sb, "  - %s\n", v.String())
		}
	}
	return sb.String()
}
