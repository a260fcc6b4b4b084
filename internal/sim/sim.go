// Package sim provides the deterministic discrete-event kernel that drives
// DQEMU's simulated cluster. Virtual time is int64 nanoseconds. Events fire
// in (time, insertion-order) order, so runs are reproducible — the property
// that lets the benchmark harness regenerate the paper's figures exactly.
package sim

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   int64
	seq   uint64
	queue []event
	// Stopped reports whether Stop was called.
	stopped bool
}

// An event is a handler and the word it is called with. A func() posted
// through Post/PostAt is the argument of callFunc; neither a func value nor a
// pointer allocates when stored in an interface, so posting costs no heap
// object as long as the handler itself was made beforehand.
type event struct {
	at  int64
	seq uint64
	fn  func(any)
	arg any
}

func callFunc(fn any) { fn.(func())() }

// before is the firing order: time, then posting order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// push and pop keep queue a binary min-heap under before. They work on
// []event directly: container/heap would box every event in an interface.
func (k *Kernel) push(e event) {
	q := append(k.queue, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	k.queue = q
}

func (k *Kernel) pop() event {
	q := k.queue
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the popped slot's fn and arg
	q = q[:last]
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < last && q[l].before(&q[least]) {
			least = l
		}
		if r := 2*i + 2; r < last && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	k.queue = q
	return top
}

// NewKernel returns a kernel at time zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time in nanoseconds.
func (k *Kernel) Now() int64 { return k.now }

// Post schedules fn to run delay nanoseconds from now. Negative delays are
// clamped to zero (same-time events run in posting order).
func (k *Kernel) Post(delay int64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.PostAt(k.now+delay, fn)
}

// PostAt schedules fn at absolute time t (clamped to now).
func (k *Kernel) PostAt(t int64, fn func()) { k.PostArgAt(t, callFunc, fn) }

// PostArgAt schedules fn(arg) at absolute time t (clamped to now), in the same
// (time, posting order) sequence as every other post. A caller that makes fn
// once and passes what varies as arg (a pointer) posts without allocating.
func (k *Kernel) PostArgAt(t int64, fn func(any), arg any) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, fn: fn, arg: arg})
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return len(k.queue) }

// NextAt returns the time of the earliest queued event. It must not be
// called with nothing Pending. A wall-clock driver (internal/live) uses the
// kernel as its timer heap and fires events as their time comes.
func (k *Kernel) NextAt() int64 { return k.queue[0].at }

// Step runs the next event. It returns false when the queue is empty or the
// kernel is stopped.
func (k *Kernel) Step() bool {
	if k.stopped || len(k.queue) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	e.fn(e.arg)
	return true
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (k *Kernel) RunUntil(t int64) {
	for !k.stopped && len(k.queue) > 0 && k.queue[0].at <= t {
		k.Step()
	}
	if !k.stopped && k.now < t {
		k.now = t
	}
}

// Stop halts Run at the next event boundary.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop was called.
func (k *Kernel) Stopped() bool { return k.stopped }
