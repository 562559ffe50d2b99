// Package spare keeps per-statement scratch for the next statement in a
// place no garbage collection empties.
//
// A sync.Pool drops what it holds at every collection and keeps the rest on
// the P that put it, so the smaller the live heap — the more often the
// collector runs — the more scratch a statement allocates again: at GOGC=50
// a wide scan made 2.5% more allocations a statement than at 100, and those
// came from the pools' slow path, their New and the regrowth of the buffers
// they had lost. A List is a bounded stack behind a mutex instead: what is
// put back stays until it is taken, wherever the taker runs.
package spare

import "sync"

// Max is how many spares a List keeps; more put back at once are dropped for
// the collector. It covers the scratch of every worker of every statement a
// small server runs at once.
const Max = 16

// List is a free list of *T. The zero value is empty and ready; a List is
// not to be copied once in use.
type List[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a spare, or a new zero T when none is left.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	n := len(l.free)
	if n == 0 {
		l.mu.Unlock()
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	l.mu.Unlock()
	return x
}

// Put keeps x for a later Get, unless Max spares are kept already. The
// caller has emptied x of whatever it must not pin.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	if l.free == nil {
		l.free = make([]*T, 0, Max)
	}
	if len(l.free) < Max {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}
