package wlm

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAdmitterMPLGate(t *testing.T) {
	a := NewAdmitter(2)
	d1 := a.TryAdmit()
	d2 := a.TryAdmit()
	if !d1.Admitted || !d2.Admitted || d1.Active != 1 || d2.Active != 2 {
		t.Fatalf("first two admissions must pass, at 1 and 2 active: %v, %v", d1, d2)
	}
	d3 := a.TryAdmit()
	if d3.Admitted || d3.Active != 2 || d3.MPL != 2 {
		t.Fatalf("third admission must be rejected at mpl=2 with 2 active: %v", d3)
	}
	if !strings.Contains(d3.String(), "rejected") {
		t.Fatalf("decision string %q should mention rejection", d3.String())
	}
	a.Done()
	if d := a.TryAdmit(); !d.Admitted || d.Active != 2 {
		t.Fatalf("a released slot must be reusable: %v", d)
	}
	if active := a.Active(); active != 2 {
		t.Fatalf("active = %d, want 2", active)
	}
}

func TestAdmitterUnlimited(t *testing.T) {
	a := NewAdmitter(0)
	for i := 0; i < 50; i++ {
		if !a.TryAdmit().Admitted {
			t.Fatal("mpl=0 must never reject")
		}
	}
}

func TestAdmitterConcurrent(t *testing.T) {
	a := NewAdmitter(4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	peak := 0 // the most slots any admission saw held
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if d := a.TryAdmit(); d.Admitted {
					mu.Lock()
					peak = max(peak, d.Active)
					mu.Unlock()
					a.Done()
				}
			}
		}()
	}
	wg.Wait()
	if active := a.Active(); active != 0 {
		t.Fatalf("active = %d after all Done, want 0", active)
	}
	if peak > 4 {
		t.Fatalf("peak = %d, exceeded mpl 4", peak)
	}
}

func TestGrantDOP(t *testing.T) {
	unlimited := NewAdmitter(0)
	if got := unlimited.GrantDOP(8); got != 8 {
		t.Errorf("unlimited gate granted %d, want 8", got)
	}
	if got := unlimited.GrantDOP(0); got != 1 {
		t.Errorf("want<1 must grant 1, got %d", got)
	}
	a := NewAdmitter(4)
	// Idle gate: one active slot (ours), headroom = mpl - active + 1 = 4.
	a.TryAdmit()
	if got := a.GrantDOP(8); got != 4 {
		t.Errorf("idle gate granted %d, want 4", got)
	}
	if got := a.GrantDOP(2); got != 2 {
		t.Errorf("small request granted %d, want 2", got)
	}
	// Saturated gate: DOP degrades toward serial but never below 1.
	a.TryAdmit()
	a.TryAdmit()
	a.TryAdmit()
	if got := a.GrantDOP(8); got != 1 {
		t.Errorf("saturated gate granted %d, want 1", got)
	}
}

// fakeBudget records the budgets the pool assigns it.
type fakeBudget struct{ budget int }

func (f *fakeBudget) SetBudget(rows int) { f.budget = rows }

func TestMemPoolReclaimsFromRunning(t *testing.T) {
	a := NewAdmitter(0)
	a.SetMemPool(1200)
	q1 := &fakeBudget{}
	if share := a.AttachMem(q1); share != 1200 {
		t.Fatalf("first attach share = %d, want 1200", share)
	}
	if q1.budget != 1200 {
		t.Fatalf("q1 budget = %d, want 1200", q1.budget)
	}
	q2 := &fakeBudget{}
	if share := a.AttachMem(q2); share != 600 {
		t.Fatalf("second attach share = %d, want 600", share)
	}
	// q1 was reclaimed down while running.
	if q1.budget != 600 || q2.budget != 600 {
		t.Fatalf("budgets after second attach = %d/%d, want 600/600", q1.budget, q2.budget)
	}
	q3 := &fakeBudget{}
	if share := a.AttachMem(q3); share != 400 {
		t.Fatalf("third attach share = %d, want 400", share)
	}
	// Both running queries were reclaimed down again.
	if q1.budget != 400 || q2.budget != 400 || q3.budget != 400 {
		t.Fatalf("budgets after third attach = %d/%d/%d, want 400 each", q1.budget, q2.budget, q3.budget)
	}
	// Departures grow the remaining budgets back: no reclaim.
	a.DetachMem(q2)
	if q1.budget != 600 || q3.budget != 600 || q2.budget != 400 {
		t.Fatalf("budgets after detach = %d/%d, the departed %d; want 600/600 and 400 untouched", q1.budget, q3.budget, q2.budget)
	}
}

func TestMemPoolDisabled(t *testing.T) {
	a := NewAdmitter(0)
	q := &fakeBudget{budget: 77}
	if share := a.AttachMem(q); share != 0 {
		t.Fatalf("share without pool = %d, want 0", share)
	}
	if q.budget != 77 {
		t.Fatalf("budget touched without pool: %d", q.budget)
	}
	a.DetachMem(q)
}

// parkedAdmit starts Admit(wait, canceled, nil) on a goroutine and returns
// once the call is parked in the queue at depth depth.
func parkedAdmit(t *testing.T, a *Admitter, depth int, wait time.Duration, canceled func() bool) <-chan Decision {
	t.Helper()
	got := make(chan Decision, 1)
	go func() { got <- a.Admit(wait, canceled, nil) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, d, _ := a.QueueStats(); d == depth {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("Admit never parked at depth %d", depth)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitFIFOHandoff checks that Done gives a freed slot to the oldest
// waiter directly: an arrival issued right after Done finds the gate still
// full, and the waiters take their slots in arrival order.
func TestAdmitFIFOHandoff(t *testing.T) {
	a := NewAdmitter(1)
	if d := a.Admit(time.Second, nil, nil); !d.Admitted || d.Active != 1 {
		t.Fatalf("empty gate must admit at once: %v", d)
	}
	first := parkedAdmit(t, a, 1, 5*time.Second, nil)
	second := parkedAdmit(t, a, 2, 5*time.Second, nil)

	a.Done()
	if d := a.TryAdmit(); d.Admitted {
		t.Fatal("an arrival after Done took the slot handed to the oldest waiter")
	}
	if d := <-first; !d.Admitted || d.Active != 1 {
		t.Fatalf("oldest waiter got %v, want admitted active=1", d)
	}
	select {
	case d := <-second:
		t.Fatalf("second waiter got %v while the first holds the slot", d)
	default:
	}
	a.Done()
	if d := <-second; !d.Admitted || d.Active != 1 {
		t.Fatalf("second waiter got %v after the first's Done, want admitted active=1", d)
	}
	a.Done()
	if active := a.Active(); active != 0 {
		t.Fatalf("active = %d after every Done, want 0", active)
	}
	if queued, depth, qpeak := a.QueueStats(); queued != 2 || depth != 0 || qpeak != 2 {
		t.Fatalf("queue stats = (%d,%d,%d), want (2,0,2)", queued, depth, qpeak)
	}
}

// TestAdmitTimeout holds the only slot past the wait: Admit gives up after
// it with a Decision that did not admit and leaves the queue empty.
func TestAdmitTimeout(t *testing.T) {
	a := NewAdmitter(1)
	a.TryAdmit()
	start := time.Now()
	if d := a.Admit(30*time.Millisecond, nil, nil); d.Admitted {
		t.Fatal("full gate admitted past the wait")
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("gave up after %v, before the wait elapsed", elapsed)
	}
	if _, depth, _ := a.QueueStats(); a.Active() != 1 || depth != 0 {
		t.Fatalf("active %d, depth %d; want 1, 0", a.Active(), depth)
	}
	a.Done()
	if d := a.TryAdmit(); !d.Admitted {
		t.Fatal("the slot leaked past a timed-out waiter")
	}
}

// TestAdmitCancelWhileParked cancels a parked Admit: it returns without a
// slot, long before its wait, and leaves active as it was; the next Done
// frees the slot rather than handing it to the gone waiter. (That a cancel
// is not a rejection is the engine's count: see the server's
// TestAdmissionQueueCancel.)
func TestAdmitCancelWhileParked(t *testing.T) {
	a := NewAdmitter(1)
	a.TryAdmit()
	var cancel atomic.Bool
	got := parkedAdmit(t, a, 1, time.Minute, cancel.Load)
	cancel.Store(true)
	select {
	case d := <-got:
		if d.Admitted {
			t.Fatal("a canceled waiter was admitted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a canceled waiter stayed parked")
	}
	if _, depth, _ := a.QueueStats(); a.Active() != 1 || depth != 0 {
		t.Fatalf("active %d, depth %d; want 1, 0", a.Active(), depth)
	}
	a.Done()
	if active := a.Active(); active != 0 {
		t.Fatalf("active %d after the holder's Done, want 0: a slot leaked", active)
	}
}

// TestAdmitQueuedOnce checks the queued hook: never for a free slot, once
// per parked call, with the depth the call joined the queue at.
func TestAdmitQueuedOnce(t *testing.T) {
	a := NewAdmitter(1)
	depths := make(chan int, 4)
	hook := func(depth int) { depths <- depth }
	a.Admit(time.Second, nil, hook)
	first := parkedAdmit(t, a, 1, 5*time.Second, nil)
	got := make(chan Decision, 1)
	go func() { got <- a.Admit(5*time.Second, nil, hook) }()
	if d := <-depths; d != 2 {
		t.Fatalf("queued called with depth %d, want 2", d)
	}
	a.Done() // to the first waiter
	<-first
	a.Done() // to the hooked one
	if d := <-got; !d.Admitted {
		t.Fatalf("hooked waiter got %v", d)
	}
	if len(depths) != 0 {
		t.Fatalf("queued called %d more time(s)", len(depths))
	}
}
