// Package recycle is the process-wide recycler's one data structure: a
// capped free list that a finished run hands its memory to and the next run
// in the process draws from (guest pages, engines, the frame stock, the
// buffers of live connections).
//
// A List is a mutex-guarded stack, not a sync.Pool: the garbage collector
// never empties it, so what a run allocates depends on what ran before it in
// the process and not on when the last collection happened. What bounds it
// is its cap, chosen per list from the high-water mark measured on the
// benchmark's workloads; a value offered to a full list is left to the
// garbage collector.
package recycle

import "sync"

// List keeps at most its cap of values for reuse. The zero List keeps
// nothing; make one with New.
type List[T any] struct {
	mu    sync.Mutex
	items []T
	max   int
	name  string
}

// lists is every List New made, for Drain and Census.
var lists struct {
	sync.Mutex
	all []interface {
		drain()
		held() Held
	}
}

// New makes a list that keeps at most max values, registered under name
// for Drain and Census. Lists are made once, as package variables.
func New[T any](name string, max int) *List[T] {
	l := &List[T]{max: max, name: name}
	lists.Lock()
	lists.all = append(lists.all, l)
	lists.Unlock()
	return l
}

// Get takes a kept value, the one put last; ok is false when there is none.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return v, false
	}
	v = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return v, true
}

// Put keeps v unless the list is full, and reports whether it did. The
// caller hands v over only when Put returns true.
func (l *List[T]) Put(v T) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) >= l.max {
		return false
	}
	l.items = append(l.items, v)
	return true
}

func (l *List[T]) drain() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = nil
}

func (l *List[T]) held() Held {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Held{Name: l.name, Len: len(l.items), Max: l.max}
}

// Drain empties every list, so the next run allocates as a process's first
// run does (allocation tests start from it).
func Drain() {
	lists.Lock()
	defer lists.Unlock()
	for _, l := range lists.all {
		l.drain()
	}
}

// Held is what one list keeps: Len values of at most Max.
type Held struct {
	Name     string
	Len, Max int
}

// Census reports what every list keeps, in the order they were made.
func Census() []Held {
	lists.Lock()
	defer lists.Unlock()
	out := make([]Held, len(lists.all))
	for i, l := range lists.all {
		out[i] = l.held()
	}
	return out
}
