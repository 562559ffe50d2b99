package core

import (
	"strings"
	"sync"

	"rqp/internal/plan"
	"rqp/internal/types"
)

// PlanCache implements the plan-management techniques of the report's
// system-context sessions: compiled plans for literal (parameter-free)
// queries are cached and reused; every RevalidateEvery-th execution the
// plan is re-optimized against current statistics and physical design, and
// a change of plan structure is recorded — the plan-change history that
// plan-stability monitoring ("optimizer plan change management") is built
// on. Parameterized queries are always re-optimized: their index bounds
// bake parameter values, so blind reuse would be exactly the
// literals-vs-parameters fragility the equivalence sessions warn about.
// One cache is shared by every session of a server.
type PlanCache struct {
	mu sync.Mutex
	// RevalidateEvery n-th execution re-optimizes a cached plan (0 = never
	// revalidate: fully persistent plans).
	RevalidateEvery int

	entries map[string]*cacheEntry
	stats   PlanCacheStats
}

type cacheEntry struct {
	root  plan.Node
	marks planMarks
	sig   string
	execs int
}

// PlanCacheStats reports cache behaviour.
type PlanCacheStats struct {
	Hits          int
	Misses        int
	Uncacheable   int // parameterized statements
	Revalidations int
	PlanChanges   int
}

// NewPlanCache returns a cache revalidating every n-th execution.
func NewPlanCache(revalidateEvery int) *PlanCache {
	return &PlanCache{RevalidateEvery: revalidateEvery, entries: map[string]*cacheEntry{}}
}

// Stats returns a snapshot.
func (pc *PlanCache) Stats() PlanCacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.stats
}

// Len returns the number of cached plans.
func (pc *PlanCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

func normalizeText(q string) string {
	return strings.Join(strings.Fields(strings.ToLower(q)), " ")
}

// Plan returns an executable plan — optimized and marked (Engine.markPlan)
// — for the SELECT whose text is query and whose bound form is bq; the
// caller has already parsed and bound the statement, so a miss (or a
// revalidation) only optimizes and marks. The boolean reports whether the
// plan came from the cache. Safe for concurrent use: every read and update
// of an entry and of the counters happens under the cache's lock;
// optimization and marking run outside it, on a tree no other session can
// see yet — a published tree is only ever read.
func (pc *PlanCache) Plan(e *Engine, query string, bq *plan.Query, params []types.Value) (plan.Node, planMarks, bool, error) {
	if bq.NumParams > 0 {
		pc.mu.Lock()
		pc.stats.Uncacheable++
		pc.mu.Unlock()
		root, err := e.Opt.Optimize(bq, params)
		if err != nil {
			return nil, planMarks{}, false, err
		}
		return root, e.markPlan(root), false, nil
	}
	key := normalizeText(query)
	pc.mu.Lock()
	entry, hit := pc.entries[key]
	revalidate := false
	if hit {
		entry.execs++
		revalidate = pc.RevalidateEvery > 0 && entry.execs%pc.RevalidateEvery == 0
		if !revalidate {
			pc.stats.Hits++
			root, marks := entry.root, entry.marks
			pc.mu.Unlock()
			return root, marks, true, nil
		}
	}
	pc.mu.Unlock()

	root, err := e.Opt.Optimize(bq, params)
	if err != nil {
		return nil, planMarks{}, false, err
	}
	marks := e.markPlan(root)
	sig := plan.PlanSignature(root)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if !revalidate {
		pc.stats.Misses++
		pc.entries[key] = &cacheEntry{root: root, marks: marks, sig: sig, execs: 1}
		return root, marks, false, nil
	}
	pc.stats.Revalidations++
	if sig != entry.sig {
		pc.stats.PlanChanges++
	}
	// The entry is updated in place only if it is still the cached one: an
	// Invalidate (or a racing miss) since the lookup wins.
	if pc.entries[key] == entry {
		entry.root, entry.marks, entry.sig = root, marks, sig
	}
	return root, marks, false, nil
}

// Invalidate drops all cached plans (DDL and ANALYZE call this).
func (pc *PlanCache) Invalidate() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = map[string]*cacheEntry{}
}
