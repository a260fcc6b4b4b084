package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dqemu/internal/image"
	"dqemu/internal/mem"
	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/recycle"
	"dqemu/internal/workloads"
)

// sentMsg is a message as it looked when it was handed to Runtime.Send.
type sentMsg struct {
	m              *proto.Msg
	kind           proto.Kind
	from, to       int32
	page           uint64
	data, san, cpu [sha256.Size]byte
}

func hashSent(m *proto.Msg) sentMsg {
	return sentMsg{m: m, kind: m.Kind, from: m.From, to: m.To, page: m.Page,
		data: sha256.Sum256(m.Data), san: sha256.Sum256(m.San), cpu: sha256.Sum256(m.CPU)}
}

// copyMsg is a deep copy of m: what a test that reads a message after its
// handler returned must keep, since the cluster then reuses the message
// and its container.
func copyMsg(m *proto.Msg) *proto.Msg {
	c := *m
	c.Data = bytes.Clone(m.Data)
	c.Shadows, c.CPU, c.San = slices.Clone(m.Shadows), bytes.Clone(m.CPU), bytes.Clone(m.San)
	return &c
}

// recordingRuntime records a deep copy of every message sent.
type recordingRuntime struct {
	Runtime
	sent []*proto.Msg
}

func (r *recordingRuntime) Send(m *proto.Msg) {
	r.sent = append(r.sent, copyMsg(m))
	r.Runtime.Send(m)
}

// aliasRuntime hashes every buffer a message carries as it is sent, and
// checks the hashes again when the message is delivered, before its
// handler runs.
type aliasRuntime struct {
	Runtime
	t    *testing.T
	name string
	// inFlight is what each message sent and not yet delivered looked
	// like at Send; under a fault plan delivered messages stay in it.
	inFlight map[*proto.Msg]sentMsg
	keep     bool
	// sends counts messages sent, and reused those sent in a message
	// that had already been delivered in this run.
	sends, reused int
	delivered     map[*proto.Msg]bool
}

func (r *aliasRuntime) Send(m *proto.Msg) {
	r.sends++
	if r.delivered[m] {
		r.reused++
	}
	r.inFlight[m] = hashSent(m)
	r.Runtime.Send(m)
}

// deliver runs as a frame's delivery starts. Under a fault plan it may be
// a copy the wire made, or an ack, which were never sent through r.
func (r *aliasRuntime) deliver(m *proto.Msg) {
	s, ok := r.inFlight[m]
	if !ok {
		return
	}
	if now := hashSent(m); now != s {
		r.t.Fatalf("%s: a message (%v, node %d -> %d, page %#x) changed between its Send and its delivery",
			r.name, s.kind, s.from, s.to, s.page)
	}
	r.delivered[m] = true
	if !r.keep {
		delete(r.inFlight, m)
	}
}

// TestAliasSentBuffersImmutable pins the rule that makes reusing buffers
// safe (wire.go): whatever was handed to Runtime.Send does not change until
// its handler runs. Under the simulator the receiver reads the sender's very
// bytes, so a reused page, twin, snapshot, scratch or arena buffer that had
// leaked into a message, or a kept frame drawn while still in flight, would
// corrupt a later delivery. Every buffer of every message is hashed at Send
// and again when its delivery starts. Under a fault plan the reliable
// transport keeps frames for retransmission and nothing is reused, so every
// message is checked again after the run; otherwise the cluster reuses
// delivered frames, and only the ones never delivered are.
func TestAliasSentBuffersImmutable(t *testing.T) {
	canneal, err := workloads.Canneal(4, 256, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	dedup, err := workloads.Dedup(1, 2, 1, 12, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	faults := &netsim.FaultPlan{Seed: 7, DropRate: 0.05, DupRate: 0.10, ReorderRate: 0.10, JitterNs: 50_000}
	for _, tc := range []struct {
		name   string
		im     *image.Image
		slaves int
		faults *netsim.FaultPlan
		// Without deltas whole pages travel, copied out of mem.Space; with
		// the layer off altogether they travel in the legacy framing.
		noDelta, noCoalesce bool
	}{
		{"canneal", canneal, 4, nil, false, false},
		{"dedup", dedup, 2, nil, false, false},
		{"canneal under faults", canneal, 4, faults, false, false},
		{"canneal, deltas off", canneal, 4, nil, true, false},
		{"canneal, wire layer off", canneal, 4, nil, true, true},
	} {
		cfg := DefaultConfig()
		cfg.Slaves = tc.slaves
		cfg.Forwarding = true
		cfg.Splitting = true
		cfg.Faults = tc.faults
		cfg.NoDelta, cfg.NoCoalesce = tc.noDelta, tc.noCoalesce
		c, err := NewCluster(tc.im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := &aliasRuntime{Runtime: c.rt, t: t, name: tc.name, keep: tc.faults != nil,
			inFlight: map[*proto.Msg]sentMsg{}, delivered: map[*proto.Msg]bool{}}
		c.rt = rec
		for id := 0; id < cfg.Nodes(); id++ {
			c.sim.net.Register(id, func(m *proto.Msg) {
				rec.deliver(m)
				c.Deliver(m)
			})
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.ExitCode != 0 {
			t.Fatalf("%s: exit %d, console %q", tc.name, res.ExitCode, res.Console)
		}
		if !tc.noDelta && res.Wire.DeltaPages == 0 {
			t.Errorf("%s: no diffed transfer, so no buffer was rewritten in place", tc.name)
		}
		if tc.faults != nil && res.Rel.Retransmits == 0 {
			t.Errorf("%s: no retransmission happened", tc.name)
		}
		if reusing := tc.faults == nil; reusing != (rec.reused > 0) {
			t.Errorf("%s: %d of %d messages went out in a frame delivered earlier in the run", tc.name, rec.reused, rec.sends)
		}
		for m, s := range rec.inFlight {
			if now := hashSent(m); now != s {
				t.Fatalf("%s: a message (%v, node %d -> %d, page %#x) changed after it was sent",
					tc.name, s.kind, s.from, s.to, s.page)
			}
		}
	}
}

// quantumCounter counts the guest quanta a run completes.
type quantumCounter struct {
	Runtime
	quanta uint64
}

func (r *quantumCounter) Ran(costNs int64, fn func()) {
	r.quanta++
	r.Runtime.Ran(costNs, fn)
}

// TestAllocPerQuantum: a quantum — dispatch, the completion event, the
// re-enqueue — costs no heap object. Two compute-bound threads on one node,
// run for N and for 2N iterations: the runs translate the same code and
// differ only in how many quanta they execute. Each quantum used to cost a
// closure holding the thread and its tcg.Result, and the run queue regrew as
// it was resliced: 2.0 objects per quantum.
func TestAllocPerQuantum(t *testing.T) {
	run := func(iters int) (mallocs, quanta uint64) {
		im := build(t, fmt.Sprintf(`
long sums[2];
long worker(long idx) {
	long s = idx;
	for (long i = 0; i < %d; i++) s = s * 3 + i;
	sums[idx] = s;
	return 0;
}
long main() {
	long tids[2];
	for (long i = 0; i < 2; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 2; i++) thread_join(tids[i]);
	print_long(sums[0] != sums[1]);
	print_char('\n');
	return 0;
}`, iters))
		cfg := DefaultConfig()
		cfg.Slaves = 0
		cfg.Cores = 1 // both threads share a core: every quantum goes through the run queue
		// Both runs start on an empty recycler, so neither translates into
		// storage an earlier run left its engine.
		recycle.Drain()
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := &quantumCounter{Runtime: c.rt}
		c.rt = rt
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Console != "1\n" {
			t.Fatalf("console %q", res.Console)
		}
		return after.Mallocs - before.Mallocs, rt.quanta
	}
	shortMallocs, shortQuanta := run(400_000)
	longMallocs, longQuanta := run(800_000)
	extra := longQuanta - shortQuanta
	if extra < 200 {
		t.Fatalf("twice the work ran only %d more quanta", extra)
	}
	perQuantum := (float64(longMallocs) - float64(shortMallocs)) / float64(extra)
	t.Logf("%.3f objects allocated per extra quantum (%d of them)", perQuantum, extra)
	if raceEnabled {
		return // the detector's own bookkeeping allocates
	}
	if perQuantum > 0.05 {
		t.Errorf("%.3f objects allocated per extra quantum, want under 0.05", perQuantum)
	}
}

// pingPongSrc is two threads in strict alternation on one page: every
// handoff moves the page's write ownership from one slave to the other (a
// fetch reply to the master, a grant to the next writer, a read copy for the
// spinning loser).
func pingPongSrc(rounds int) string {
	return fmt.Sprintf(`
long counter;
long turn;
long worker(long idx) {
	for (long i = 0; i < %d; i++) {
		while (turn != idx) { }
		counter += 1;
		turn = 1 - idx;
	}
	return 0;
}
long main() {
	long tids[2];
	for (long i = 0; i < 2; i++) tids[i] = thread_create((long)worker, i);
	for (long i = 0; i < 2; i++) thread_join(tids[i]);
	print_long(counter);
	print_char('\n');
	return 0;
}`, rounds)
}

// TestAllocPerPageTransfer pins the buffer discipline end to end: once the
// page, its twins and its snapshots exist, moving it between nodes allocates
// no page-sized buffer, and the protocol around it next to nothing: the
// request, fetch, reply and grant are built in frames delivered before them,
// the two content-carrying ones in delivered containers, and the directory
// holds a stashed request by value. Two runs that differ only in how long
// they ping-pong the same page differ, per extra page payload, by 15 to 16
// bytes. It was 27 to 31 while every invalidation window made its timer
// event and its slice again, 389 bytes while every message and container
// was allocated and dropped, 747 while a message was 224 bytes and every
// delta body was made to be copied into its container, 1,490 while quanta,
// event hops and decodes still allocated, and three and a half pages before
// buffers were rewritten in place.
func TestAllocPerPageTransfer(t *testing.T) {
	run := func(rounds int) (allocated, payloads uint64) {
		im := build(t, pingPongSrc(rounds))
		cfg := DefaultConfig()
		cfg.Slaves = 2
		var before, after runtime.MemStats
		recycle.Drain()
		runtime.ReadMemStats(&before)
		res, err := Run(im, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%d\n", 2*rounds); res.Console != want {
			t.Fatalf("console %q, want %q", res.Console, want)
		}
		w := res.Wire
		return after.TotalAlloc - before.TotalAlloc, w.SamePages + w.DeltaPages + w.RLEPages + w.FullPages
	}
	shortBytes, shortPayloads := run(50)
	longBytes, longPayloads := run(250)
	extra := longPayloads - shortPayloads
	if extra < 3*2*200 {
		t.Fatalf("200 more rounds moved only %d more page payloads: not a ping-pong", extra)
	}
	perPayload := float64(longBytes-shortBytes) / float64(extra)
	t.Logf("%.0f bytes allocated per extra page payload (%d of them)", perPayload, extra)
	if raceEnabled {
		return // the detector's own bookkeeping allocates
	}
	if limit := 20.0; perPayload > limit { // measured 16, plus a quarter
		t.Errorf("%.0f bytes allocated per extra page payload, want under %.0f", perPayload, limit)
	}
}

// syscallMsgs counts the syscall messages of a run.
type syscallMsgs struct {
	Runtime
	msgs uint64
}

func (r *syscallMsgs) Send(m *proto.Msg) {
	if m.Kind == proto.KSyscallReq || m.Kind == proto.KSyscallReply {
		r.msgs++
	}
	r.Runtime.Send(m)
}

// TestAllocSyscallMsg: a delegated syscall is a request and a reply, each a
// frame delivered before it with the syscall words among its fields. So two
// runs that differ only in how many times a thread on the slave calls
// getpid differ, per extra call, by the master's reply closure: 43 to 48
// bytes. It was 176 while each message carried a 64-byte syscall part made
// anew, and 369 while every message was allocated.
func TestAllocSyscallMsg(t *testing.T) {
	run := func(calls int) (allocated, msgs uint64) {
		im := build(t, fmt.Sprintf(`
long worker(long arg) {
	long s = 0;
	for (long i = 0; i < %d; i++) s += getpid();
	return s;
}
long main() {
	thread_join(thread_create((long)worker, 0));
	return 0;
}`, calls))
		cfg := DefaultConfig()
		cfg.Slaves = 1
		c, err := NewCluster(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := &syscallMsgs{Runtime: c.rt}
		c.rt = rt
		var before, after runtime.MemStats
		recycle.Drain()
		runtime.ReadMemStats(&before)
		res, err := c.Run()
		runtime.ReadMemStats(&after)
		if err != nil || res.ExitCode != 0 {
			t.Fatalf("exit %v, err %v", res, err)
		}
		return after.TotalAlloc - before.TotalAlloc, rt.msgs
	}
	shortBytes, shortMsgs := run(500)
	longBytes, longMsgs := run(2500)
	trips := (longMsgs - shortMsgs) / 2
	if trips != 2000 {
		t.Fatalf("2,000 more calls made %d more round trips", trips)
	}
	perTrip := float64(longBytes-shortBytes) / float64(trips)
	t.Logf("%.0f bytes allocated per extra round trip", perTrip)
	if raceEnabled {
		return // the detector's own bookkeeping allocates
	}
	if limit := 60.0; perTrip > limit { // measured 48, plus a quarter
		t.Errorf("%.0f bytes allocated per extra round trip, want under %.0f", perTrip, limit)
	}
}

// TestAllocRecycledBuffersNotResident: a page a node gave up must not show
// in what the invariant checkers read, although its buffer is kept for reuse
// and its twin is kept for the next diff.
func TestAllocRecycledBuffersNotResident(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	c, err := NewCluster(build(t, pingPongSrc(20)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.simulate(maxTimeNs); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, n := range c.nodes[1:] {
		listed := map[uint64]bool{}
		n.space.ForEachPage(func(page uint64, _ mem.Perm) { listed[page] = true })
		for page, tw := range n.twins {
			if tw.ver == 0 {
				t.Errorf("node %d: twin of page %#x left without a version", n.id, page)
			}
			if n.space.PageData(page) == nil {
				dropped++
				if listed[page] {
					t.Errorf("node %d: dropped page %#x listed as resident", n.id, page)
				}
			}
		}
		if got := len(listed); got != n.space.ResidentPages() {
			t.Errorf("node %d: %d pages inspected, %d resident", n.id, got, n.space.ResidentPages())
		}
	}
	if dropped == 0 {
		t.Error("no slave gave up a page it had held: nothing was recycled")
	}
}
