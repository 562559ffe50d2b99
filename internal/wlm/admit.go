package wlm

import (
	"fmt"
	"sync"
	"time"
)

// MemReclaimable is a per-query memory budget the workload manager can
// shrink (or re-grow) while the query runs — exec.MemBroker satisfies it.
// Defined here so wlm needs no dependency on the execution engine.
type MemReclaimable interface {
	SetBudget(rows int)
}

// Admitter is live admission control: a multiprogramming-limit gate the
// engine consults before running a query. It is the on-line counterpart of
// SimulateProcessorSharing's MPL gate — same policy, applied to real
// concurrent sessions instead of simulated jobs. Decisions are reported to
// the caller so the observability layer can trace and count them.
//
// With a memory pool configured (SetMemPool), the Admitter also arbitrates
// workspace memory across the running mix: every attached query budget
// (AttachMem) holds an equal share of the pool, and each arrival or
// departure rebalances the shares — shrinking the budgets of queries
// already running, whose operators then spill at their next grant
// re-negotiation. That reclaim-from-running behaviour is the workload-
// management half of graceful degradation: admission keeps the mix feasible
// while the spill machinery keeps every member of the mix correct.
type Admitter struct {
	mu          sync.Mutex
	mpl         int // 0 = unlimited
	active      int
	peak        int
	admitted    int64
	rejected    int64
	memPool     int // total workspace rows shared by running queries; 0 = none
	attached    []MemReclaimable
	memReclaims int64
	// waiters are the statements parked in Admit, oldest first. Done hands
	// a freed slot to waiters[0] instead of freeing it (FIFO — the
	// arrival-order fairness a service layer needs so no statement starves
	// behind later arrivals, and no arrival can take a slot a waiter is owed).
	waiters   []chan struct{}
	queued    int64
	queuePeak int
}

// NewAdmitter returns a gate admitting at most mpl concurrent queries
// (0 = unlimited).
func NewAdmitter(mpl int) *Admitter {
	return &Admitter{mpl: mpl}
}

// Decision is one admission outcome.
type Decision struct {
	Admitted bool
	Active   int // concurrently admitted queries after this decision
	MPL      int
}

// String renders the decision for trace events.
func (d Decision) String() string {
	verdict := "admitted"
	if !d.Admitted {
		verdict = "rejected"
	}
	return fmt.Sprintf("%s active=%d mpl=%d", verdict, d.Active, d.MPL)
}

// TryAdmit requests a slot without waiting: Admit with no wait.
func (a *Admitter) TryAdmit() Decision { return a.Admit(0, nil, nil) }

// cancelPoll is how often a parked Admit polls its canceled hook.
const cancelPoll = 10 * time.Millisecond

// Admit requests a slot and, when the gate is full, waits for one. It is the
// only way to wait: a free slot is taken at once; otherwise, with a positive
// wait, the caller joins the FIFO queue, queued (if non-nil) is called once
// with the queue depth, and Admit parks until Done hands it the freed slot
// directly, wait elapses, or canceled (if non-nil) returns true. A timeout
// counts as a rejection; a cancel does not. An admitted caller owes a Done.
func (a *Admitter) Admit(wait time.Duration, canceled func() bool, queued func(depth int)) Decision {
	a.mu.Lock()
	if a.mpl <= 0 || a.active < a.mpl {
		a.active++
		a.admitted++
		a.peak = max(a.peak, a.active)
		d := Decision{Admitted: true, Active: a.active, MPL: a.mpl}
		a.mu.Unlock()
		return d
	}
	if wait <= 0 {
		a.rejected++
		d := Decision{Active: a.active, MPL: a.mpl}
		a.mu.Unlock()
		return d
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	a.queued++
	depth := len(a.waiters)
	a.queuePeak = max(a.queuePeak, depth)
	a.mu.Unlock()
	if queued != nil {
		queued(depth)
	}

	timer := time.NewTimer(wait)
	defer timer.Stop()
	var poll <-chan time.Time
	if canceled != nil {
		t := time.NewTicker(cancelPoll)
		defer t.Stop()
		poll = t.C
	}
	handed := Decision{Admitted: true, Active: a.mpl, MPL: a.mpl} // the gate stays full
	timedOut := false
park:
	for {
		select {
		case <-ch:
			return handed
		case <-timer.C:
			timedOut = true
			break park
		case <-poll:
			if canceled() {
				break park
			}
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, cand := range a.waiters {
		if cand == ch {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			if timedOut {
				a.rejected++
			}
			return Decision{Active: a.active, MPL: a.mpl}
		}
	}
	// Done handed the slot over between the wake-up and the lock: it is
	// this caller's, canceled or not.
	return handed
}

// GrantDOP scales a query's requested degree of parallelism by current
// load: a query may use at most the gate's idle headroom (plus its own
// slot), and never less than one worker. An unlimited gate grants the full
// request. This is the report's "degree of parallelism as a workload
// management knob": under light load queries fan out, as the mix thickens
// they gracefully degrade toward serial instead of oversubscribing cores.
func (a *Admitter) GrantDOP(want int) int {
	if want < 1 {
		return 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mpl <= 0 {
		return want
	}
	headroom := a.mpl - a.active + 1
	if headroom < 1 {
		headroom = 1
	}
	if want > headroom {
		return headroom
	}
	return want
}

// Done releases a previously admitted slot: to the oldest waiter in Admit,
// if any, which then holds it, and back to the gate otherwise.
func (a *Admitter) Done() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.waiters) > 0 {
		close(a.waiters[0])
		a.waiters = a.waiters[1:]
		a.admitted++
		return
	}
	if a.active > 0 {
		a.active--
	}
}

// QueueStats reports lifetime queued waits, the current queue depth, and
// the peak depth — the service layer's backpressure gauges.
func (a *Admitter) QueueStats() (queued int64, depth, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued, len(a.waiters), a.queuePeak
}

// Stats reports lifetime admissions, rejections, current and peak
// concurrency.
func (a *Admitter) Stats() (admitted, rejected int64, active, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.rejected, a.active, a.peak
}

// SetMemPool configures the total workspace memory (rows) shared by all
// attached query budgets. Zero disables pooling: attached budgets are left
// alone.
func (a *Admitter) SetMemPool(rows int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.memPool = rows
	a.rebalanceLocked()
}

// AttachMem registers a running query's memory budget with the pool and
// rebalances: every attached budget — including those of queries already
// running, which are reclaimed down — becomes an equal share of the pool.
// Returns this query's share (or 0 when no pool is configured).
func (a *Admitter) AttachMem(m MemReclaimable) int {
	if m == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attached = append(a.attached, m)
	if a.memPool > 0 && len(a.attached) > 1 {
		// Every query already running held a larger share before this
		// arrival; resetting it is a reclaim.
		a.memReclaims += int64(len(a.attached) - 1)
	}
	a.rebalanceLocked()
	if a.memPool <= 0 {
		return 0
	}
	return a.memPool / len(a.attached)
}

// DetachMem removes a query's budget from the pool and redistributes its
// share to the remaining queries (their budgets grow back).
func (a *Admitter) DetachMem(m MemReclaimable) {
	if m == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, cand := range a.attached {
		if cand == m {
			a.attached = append(a.attached[:i], a.attached[i+1:]...)
			break
		}
	}
	a.rebalanceLocked()
}

// MemReclaims reports how many times a running query's budget was shrunk
// because another query joined the pool.
func (a *Admitter) MemReclaims() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.memReclaims
}

// rebalanceLocked resets every attached budget to an equal pool share.
func (a *Admitter) rebalanceLocked() {
	if a.memPool <= 0 || len(a.attached) == 0 {
		return
	}
	share := a.memPool / len(a.attached)
	for _, m := range a.attached {
		m.SetBudget(share)
	}
}
