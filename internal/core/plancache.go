package core

import (
	"math"
	"strings"
	"sync"

	"rqp/internal/catalog"
	"rqp/internal/opt"
	"rqp/internal/plan"
	"rqp/internal/types"
)

// Constants of the plan cache. None is a setting: no workload in the
// repository wants another value.
const (
	// planCacheCap bounds the statements held; one more evicts by second
	// chance, so a flood of one-off texts does not push out the ones in use.
	planCacheCap = 1024
	// maxVariants bounds the plans kept per statement: the cells of its plan
	// diagram that recent binds fell into, most recently used first.
	maxVariants = 4
	// PlanCachePenalty is λ: a plan chosen at selectivity s serves every bind
	// whose selectivity lies within a factor 1+λ of s (see PlanCache).
	PlanCachePenalty = 0.2
)

// PlanCache implements the plan-management techniques of the report's
// system-context sessions as one statement cache, from raw text to a
// late-bound plan. One cache is shared by every session of a server.
//
// A statement is found by its raw text — a map lookup that allocates
// nothing — and holds its bound query block, so a hit goes from text to
// exec.Drain without parsing or binding. A raw-text miss parses and binds,
// then looks under the normalised text (case and white space folded), where
// another spelling of the statement may already sit. Only SELECTs that bind
// as written are entered: one with an `IN (SELECT …)` is expanded into a
// frozen literal list first and keeps the uncached path (Uncacheable).
//
// Plans bake no values (an index scan derives its bounds from the execution's
// parameters, as a column scan its pushed predicates), so a parameterised
// statement is cached like a literal one. What must not happen is the
// literals-vs-parameters fragility the equivalence sessions warn about: a
// plan chosen for one value serving a value it is bad for. So each of a
// statement's plans (at most maxVariants) carries the region of the
// selectivity space it was chosen in — for every conjunct that mentions a `?`
// (opt.ParamPreds), the interval of the estimator's own selectivity
// (opt.PredSelectivity) over the binds the optimizer was actually asked
// about, plus which parameters were NULL, numeric or neither, which decides
// whether a conjunct is an index range at all. The statement's variants are a
// lazily grown plan diagram:
//
//   - A bind inside a region reuses that region's plan. A region that is a
//     single point is exact, not approximate: selectivity and parameter
//     class are everything the optimizer derives from a value, the optimizer
//     is deterministic, so it would return the very plan cached. Key lookups
//     live here — a unique key's selectivity is the same for every value.
//     (Under Options.Columnar the ColScan estimate also asks the zone maps
//     which blocks a value leaves to read; there a point is approximate too.)
//   - A region reaches a factor 1+λ beyond the binds it was built from
//     (split evenly over the conjuncts): a plan's cost grows at most linearly
//     in a selectivity and the optimal cost does not fall as selectivity
//     rises, so the plan optimal at s costs at most 1+λ times the optimum
//     anywhere in [s/(1+λ), s(1+λ)].
//   - A bind outside every region re-optimizes once. If the optimizer
//     returns the plan (same plan.PlanSignature) of an existing variant, that
//     variant's region widens to cover the bind — assuming the plan diagram
//     is convex there, i.e. that a plan optimal at both ends of an interval is
//     within 1+λ of optimal between them. The assumption is dropped where
//     the cache knows better: a region never widens across a bind at which
//     the optimizer chose another plan. Otherwise the new plan becomes a
//     variant of its own, displacing the least recently used one.
//
// Experiment E31 draws the robustness map of this rule: executed cost of the
// cached plan over executed cost of a fresh plan across a parameter's domain.
//
// Every RevalidateEvery-th execution of a statement re-optimizes at its bind
// against current statistics and physical design, and a change of plan
// structure is recorded — the plan-change history that plan-stability
// monitoring ("optimizer plan change management") is built on. DDL drops
// every statement; ANALYZE of a table drops the plans, not the parsed and
// bound form, of the statements that read it (InvalidateTable).
type PlanCache struct {
	mu sync.Mutex
	// RevalidateEvery n-th execution re-optimizes a cached plan (0 = never
	// revalidate: fully persistent plans).
	RevalidateEvery int

	// entries finds a statement by its normalised text and by the raw
	// spelling it was last entered under; ring holds each statement once,
	// for the second-chance hand.
	entries map[string]*cachedStmt
	ring    []*cachedStmt
	hand    int
	// gen counts invalidations: a statement looked up before one must not
	// hand out or store plans after it.
	gen   uint64
	stats PlanCacheStats
}

// cachedStmt is one SELECT as bound against the catalog. Everything but
// used, execs, variants and statsGen is fixed when it is entered; those four
// are guarded by the cache's lock.
type cachedStmt struct {
	norm, raw string // its keys in entries; raw is empty when text == norm
	gen       uint64
	// statsGen counts the times an ANALYZE of a table the statement reads
	// dropped its variants: a plan optimized across one is not stored.
	statsGen uint64
	bq       *plan.Query
	preds    []opt.ParamPred
	// slack is the factor a region reaches beyond its binds on each
	// conjunct: (1+λ)^(1/len(preds)).
	slack    float64
	used     bool // found by its text since the eviction hand last passed
	execs    int
	variants []*planVariant // most recently used first
}

// planVariant is one plan of a statement with the region it serves. The plan
// is optimized and marked (Engine.markPlan) before the variant is published
// and only read afterwards; lo and hi change under the cache's lock.
type planVariant struct {
	root  plan.Node
	marks PlanMarks
	// fp is plan.Fingerprint: equal exactly when plan.PlanSignature is. It
	// is what widening and plan-change detection compare and what the query
	// log records, computed once per variant.
	fp    string
	class []paramClass
	// lo and hi bound, per conjunct of the statement's preds, the
	// selectivities of the binds the optimizer chose this plan at.
	lo, hi []float64
}

// paramClass is what the optimizer reads off a parameter besides the
// selectivities it yields: a NULL is never pushed into a column scan, and
// only a numeric value makes a range comparison an index bound.
type paramClass uint8

const (
	paramNull paramClass = iota
	paramNumeric
	paramOther
)

func classOf(v types.Value) paramClass {
	switch {
	case v.IsNull():
		return paramNull
	case v.Numeric():
		return paramNumeric
	}
	return paramOther
}

// PlanCacheStats reports cache behaviour. Hits and Misses count executions
// served by a cached plan and executions the optimizer ran for.
type PlanCacheStats struct {
	Hits          int
	Misses        int
	Uncacheable   int // statements with an expanded IN (SELECT …)
	Revalidations int
	PlanChanges   int
	Evictions     int // statements displaced at capacity
	Parses        int // statements parsed to be entered: text misses and Prepare
}

// NewPlanCache returns a cache revalidating every n-th execution.
func NewPlanCache(revalidateEvery int) *PlanCache {
	return &PlanCache{RevalidateEvery: revalidateEvery, entries: map[string]*cachedStmt{}}
}

// Stats returns a snapshot.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}

// Len returns the number of cached statements.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.ring)
}

// Variants returns how many plans are cached for the statement with this
// text (zero when the statement is not cached).
func (pc *PlanCache) Variants(text string) int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if st := pc.entries[normalizeText(text)]; st != nil {
		return len(st.variants)
	}
	return 0
}

func normalizeText(q string) string {
	return strings.Join(strings.Fields(strings.ToLower(q)), " ")
}

// statement returns the statement cached under text as written, or nil.
func (pc *PlanCache) statement(text string) *cachedStmt {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	st := pc.entries[text]
	if st != nil {
		st.used = true
	}
	return st
}

// enter caches a statement just parsed from text and bound to bq, and
// returns what executions of text share from now on: the statement already
// cached under the normalised text, if there is one, else a new one.
func (pc *PlanCache) enter(text string, bq *plan.Query) *cachedStmt {
	norm := normalizeText(text)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.stats.Parses++
	st := pc.entries[norm]
	if st == nil {
		st = &cachedStmt{norm: norm, gen: pc.gen, bq: bq, preds: opt.ParamPreds(bq)}
		st.slack = math.Pow(1+PlanCachePenalty, 1/math.Max(1, float64(len(st.preds))))
		pc.evictInto(st)
		pc.entries[norm] = st
	}
	if text != norm && text != st.raw {
		if st.raw != "" {
			delete(pc.entries, st.raw)
		}
		st.raw = text
		pc.entries[text] = st
	}
	return st
}

// evictInto gives st a place in the ring, at capacity the place of the first
// statement the hand finds unused since its last pass.
func (pc *PlanCache) evictInto(st *cachedStmt) {
	if len(pc.ring) < planCacheCap {
		pc.ring = append(pc.ring, st)
		return
	}
	for pc.ring[pc.hand].used {
		pc.ring[pc.hand].used = false
		pc.hand = (pc.hand + 1) % planCacheCap
	}
	old := pc.ring[pc.hand]
	delete(pc.entries, old.norm)
	if old.raw != "" {
		delete(pc.entries, old.raw)
	}
	pc.stats.Evictions++
	pc.ring[pc.hand] = st
	pc.hand = (pc.hand + 1) % planCacheCap
}

// inRegion reports whether the bind at point, of parameter classes given by
// params, falls in v's region stretched by slack.
func (v *planVariant) inRegion(point []float64, params []types.Value, slack float64) bool {
	if !v.sameClass(params) {
		return false
	}
	for i, s := range point {
		if s < v.lo[i]/slack || s > v.hi[i]*slack {
			return false
		}
	}
	return true
}

func (v *planVariant) sameClass(params []types.Value) bool {
	for i, c := range v.class {
		if classOf(params[i]) != c {
			return false
		}
	}
	return true
}

// overlaps reports whether the box [lo, hi] meets v's region.
func (v *planVariant) overlaps(lo, hi []float64) bool {
	for i := range lo {
		if hi[i] < v.lo[i] || lo[i] > v.hi[i] {
			return false
		}
	}
	return true
}

// plan returns an executable plan — optimized and marked (Engine.markPlan) —
// for one execution of st under params, and whether it came from the cache.
// Safe for concurrent use: variants, regions and counters are read and
// updated under the cache's lock; optimization and marking run outside it, on
// a tree no other session can see yet — a published tree is only ever read.
func (pc *PlanCache) plan(e *Engine, st *cachedStmt, params []types.Value) (*planVariant, bool, error) {
	if len(params) < st.bq.NumParams {
		// Too few parameters: no bind to place. Whatever an uncached
		// execution does with the statement, this one does.
		v, err := e.newVariant(st, nil, params)
		pc.mu.Lock()
		pc.stats.Misses++
		pc.mu.Unlock()
		return v, false, err
	}
	var buf [8]float64
	point := buf[:0]
	for _, p := range st.preds {
		point = append(point, opt.PredSelectivity(p.Table, p.Pred, params))
	}

	hit, seen := pc.lookup(st, point, params)
	if hit != nil && !seen.revalidate {
		return hit, true, nil
	}
	fresh, err := e.newVariant(st, point, params)
	if err != nil {
		return nil, false, err
	}
	pc.store(st, seen, hit, fresh, params)
	return fresh, false, nil
}

// lookupStamp is what a lookup saw of the invalidation counters, for the
// store that follows the optimization it led to.
type lookupStamp struct {
	stale      bool // the statement was dropped by DDL before the lookup
	statsGen   uint64
	revalidate bool
}

// lookup counts one execution of st and returns the variant whose region
// holds the bind at point, if any, moved to the front. A hit that is not due
// for revalidation is counted here; everything else is counted by store.
func (pc *PlanCache) lookup(st *cachedStmt, point []float64, params []types.Value) (*planVariant, lookupStamp) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	seen := lookupStamp{stale: st.gen != pc.gen, statsGen: st.statsGen}
	st.execs++
	seen.revalidate = pc.RevalidateEvery > 0 && st.execs%pc.RevalidateEvery == 0
	if seen.stale {
		return nil, seen
	}
	for i, v := range st.variants {
		if v.inRegion(point, params, st.slack) {
			copy(st.variants[1:i+1], st.variants[:i])
			st.variants[0] = v
			if !seen.revalidate {
				pc.stats.Hits++
			}
			return v, seen
		}
	}
	return nil, seen
}

// store files fresh, optimized after the lookup that saw seen and found hit
// (nil: a miss), among st's variants — unless DDL or an ANALYZE of one of
// st's tables came between the two: the plan may predate it, so the execution
// that asked for it runs it and nobody else does.
func (pc *PlanCache) store(st *cachedStmt, seen lookupStamp, hit, fresh *planVariant, params []types.Value) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if hit != nil {
		pc.stats.Revalidations++
		if fresh.fp != hit.fp {
			pc.stats.PlanChanges++
		}
	} else {
		pc.stats.Misses++
	}
	if seen.stale || st.gen != pc.gen || st.statsGen != seen.statsGen {
		return
	}
	if hit != nil {
		// The revalidated plan takes the variant's place: with its region
		// when the structure held, as a new point when it changed.
		for i, v := range st.variants {
			if v == hit {
				if fresh.fp == hit.fp {
					fresh.lo, fresh.hi = hit.lo, hit.hi
				}
				st.variants[i] = fresh
			}
		}
		return
	}
	if st.widen(fresh, params) {
		return
	}
	if len(st.variants) < maxVariants {
		st.variants = append(st.variants, nil)
	}
	copy(st.variants[1:], st.variants)
	st.variants[0] = fresh
}

// widen stretches the region of the variant of st that holds fresh's plan
// over fresh's bind, unless that would take in a bind at which the optimizer
// chose another plan. It reports whether a region was widened.
func (st *cachedStmt) widen(fresh *planVariant, params []types.Value) bool {
	for _, v := range st.variants {
		if v.fp != fresh.fp || !v.sameClass(params) {
			continue
		}
		lo, hi := append([]float64(nil), v.lo...), append([]float64(nil), v.hi...)
		for i, s := range fresh.lo {
			lo[i], hi[i] = math.Min(lo[i], s), math.Max(hi[i], s)
		}
		for _, other := range st.variants {
			if other.fp != v.fp && other.sameClass(params) && other.overlaps(lo, hi) {
				return false
			}
		}
		v.lo, v.hi = lo, hi
		return true
	}
	return false
}

// newVariant optimizes st at one bind and marks the plan; point is the
// bind's place in the statement's selectivity space (nil: not to be cached).
func (e *Engine) newVariant(st *cachedStmt, point []float64, params []types.Value) (*planVariant, error) {
	root, err := e.Opt.Optimize(st.bq, params)
	if err != nil {
		return nil, err
	}
	v := &planVariant{root: root, marks: e.markPlan(root), fp: plan.Fingerprint(root)}
	if point != nil {
		v.class = make([]paramClass, st.bq.NumParams)
		for i := range v.class {
			v.class[i] = classOf(params[i])
		}
		v.lo = append([]float64(nil), point...)
		v.hi = v.lo
	}
	return v, nil
}

// uncacheable counts a statement that cannot be entered.
func (pc *PlanCache) uncacheable() {
	pc.mu.Lock()
	pc.stats.Uncacheable++
	pc.mu.Unlock()
}

// InvalidateTable drops the plans of every statement that reads t, after its
// statistics changed. The statements stay, parsed and bound: their next
// execution optimizes again and nothing else. Statements over other tables
// keep their plans.
func (pc *PlanCache) InvalidateTable(t *catalog.Table) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, st := range pc.ring {
		if st.reads(t) {
			st.variants = nil
			st.statsGen++
		}
	}
}

func (st *cachedStmt) reads(t *catalog.Table) bool {
	for _, r := range st.bq.Rels {
		if r.Table == t {
			return true
		}
	}
	for _, lj := range st.bq.LeftJoins {
		if lj.Rel.Table == t {
			return true
		}
	}
	return false
}

// Invalidate drops all cached statements and their plans (DDL calls this).
func (pc *PlanCache) Invalidate() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = map[string]*cachedStmt{}
	pc.ring, pc.hand = nil, 0
	pc.gen++
}
