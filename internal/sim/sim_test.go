package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Post(30, func() { order = append(order, 3) })
	k.Post(10, func() { order = append(order, 1) })
	k.Post(20, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("now = %d", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Post(5, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestNestedPost(t *testing.T) {
	k := NewKernel()
	var hits []int64
	k.Post(10, func() {
		hits = append(hits, k.Now())
		k.Post(5, func() { hits = append(hits, k.Now()) })
	})
	k.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Post(10, func() {
		k.Post(-5, func() { fired = true })
	})
	k.Run()
	if !fired || k.Now() != 10 {
		t.Errorf("fired=%v now=%d", fired, k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []int64
	for _, d := range []int64{5, 15, 25} {
		d := d
		k.Post(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(20)
	if len(fired) != 2 {
		t.Errorf("fired = %v", fired)
	}
	if k.Now() != 20 {
		t.Errorf("now = %d", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d", k.Pending())
	}
	k.Run()
	if len(fired) != 3 || k.Now() != 25 {
		t.Errorf("after Run: fired=%v now=%d", fired, k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Post(int64(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Errorf("count = %d", count)
	}
	if !k.Stopped() {
		t.Error("not stopped")
	}
}

func TestPostAtPastClamped(t *testing.T) {
	k := NewKernel()
	var at int64 = -1
	k.Post(100, func() {
		k.PostAt(50, func() { at = k.Now() })
	})
	k.Run()
	if at != 100 {
		t.Errorf("past event ran at %d", at)
	}
}

// Property: events always fire in nondecreasing time order.
func TestQuickMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var last int64 = -1
		ok := true
		for _, d := range delays {
			k.Post(int64(d), func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refHeap is the container/heap queue the kernel used before its own typed
// heap, kept as the reference for the firing order.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].before(&h[j]) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestOrderMatchesContainerHeap replays a seeded schedule — bursts of posts,
// many at the same instant, interleaved with steps — on the kernel and on the
// reference queue, and wants the same event out of both at every step. Plain
// func() posts and argument-carrying ones are mixed at random: they share one
// (time, posting order) sequence.
func TestOrderMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	k := NewKernel()
	var ref refHeap
	var now int64
	var seq uint64
	fired := -1
	fireArg := func(id any) { fired = *id.(*int) }
	argPosts := 0
	for round := 0; round < 2000; round++ {
		for n := rng.Intn(8); n > 0; n-- {
			delay := int64(rng.Intn(4)) * 10 // four instants: ties are the rule
			id := int(seq)
			if rng.Intn(2) == 0 {
				k.Post(delay, func() { fired = id })
			} else {
				k.PostArgAt(now+delay, fireArg, &id)
				argPosts++
			}
			seq++
			heap.Push(&ref, event{at: now + delay, seq: seq})
		}
		for n := rng.Intn(8); n > 0 && k.Pending() > 0; n-- {
			want := heap.Pop(&ref).(event)
			if at := k.NextAt(); at != want.at {
				t.Fatalf("round %d: next event at %d, reference says %d", round, at, want.at)
			}
			k.Step()
			now = k.Now()
			if uint64(fired)+1 != want.seq || now != want.at {
				t.Fatalf("round %d: fired post #%d at %d, reference says #%d at %d",
					round, fired, now, want.seq-1, want.at)
			}
		}
	}
	if k.Pending() != ref.Len() {
		t.Fatalf("%d events pending, reference has %d", k.Pending(), ref.Len())
	}
	if argPosts < int(seq)/4 || argPosts > int(seq)*3/4 {
		t.Fatalf("%d of %d posts carried an argument: not a mix", argPosts, seq)
	}
}

// TestPopReleasesClosure: a fired event's closure must not stay reachable
// from the queue's backing array.
func TestPopReleasesClosure(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Post(int64(i), func() {})
		k.PostArgAt(int64(i), func(any) {}, new(int))
	}
	k.Run()
	for i, e := range k.queue[:cap(k.queue)] {
		if e.fn != nil || e.arg != nil {
			t.Errorf("slot %d still holds a closure or its argument after the queue drained", i)
		}
	}
}

func TestPostStepDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	for i := 0; i < 1024; i++ {
		k.Post(int64(1+i), nop)
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() { k.Post(int64(1+i&1023), nop); k.Step(); i++ }); n != 0 {
		t.Errorf("Post+Step at depth 1024 allocates %v times per round, want 0", n)
	}
	// The same with a handler made once and a pointer for what varies.
	hits := 0
	count := func(p any) { *p.(*int)++ }
	if n := testing.AllocsPerRun(2000, func() { k.PostArgAt(k.Now()+int64(1+i&1023), count, &hits); k.Step(); i++ }); n != 0 {
		t.Errorf("PostArgAt+Step at depth 1024 allocates %v times per round, want 0", n)
	}
}
