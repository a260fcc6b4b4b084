package dsm

import (
	"fmt"
	"reflect"
	"testing"

	"dqemu/internal/mem"
)

// mockEnv records directory actions as strings.
type mockEnv struct {
	log []string
}

func (m *mockEnv) SendContent(to int, page uint64, perm mem.Perm) {
	m.log = append(m.log, fmt.Sprintf("content:%d:%#x:%s", to, page, perm))
}
func (m *mockEnv) SendReaffirm(to int, page uint64, perm mem.Perm) {
	m.log = append(m.log, fmt.Sprintf("reaffirm:%d:%#x:%s", to, page, perm))
}
func (m *mockEnv) SendInvalidate(to int, page uint64) {
	m.log = append(m.log, fmt.Sprintf("inv:%d:%#x", to, page))
}
func (m *mockEnv) SendFetch(owner int, page uint64, invalidate bool) {
	m.log = append(m.log, fmt.Sprintf("fetch:%d:%#x:%v", owner, page, invalidate))
}
func (m *mockEnv) SendRetry(to int, page uint64, tid int64) {
	m.log = append(m.log, fmt.Sprintf("retry:%d:%#x", to, page))
}
func (m *mockEnv) HomeWriteback(page uint64, data []byte) {
	m.log = append(m.log, fmt.Sprintf("writeback:%#x", page))
}
func (m *mockEnv) HomeSetPerm(page uint64, perm mem.Perm) {
	m.log = append(m.log, fmt.Sprintf("homeperm:%#x:%s", page, perm))
}
func (m *mockEnv) BroadcastRemap(orig uint64, shadows []uint64) {
	m.log = append(m.log, fmt.Sprintf("remap:%#x:%d", orig, len(shadows)))
}
func (m *mockEnv) PushPage(to int, page uint64) {
	m.log = append(m.log, fmt.Sprintf("push:%d:%#x", to, page))
}
func (m *mockEnv) SplitHome(orig uint64, shadows []uint64) {
	m.log = append(m.log, fmt.Sprintf("splithome:%#x:%d", orig, len(shadows)))
}

func (m *mockEnv) take() []string {
	out := m.log
	m.log = nil
	return out
}

func TestReadFromHome(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 5})
	want := []string{"homeperm:0x5:S", "content:1:0x5:S"}
	if got := env.take(); !reflect.DeepEqual(got, want) {
		t.Errorf("log = %v, want %v", got, want)
	}
	owner, sharers, busy := d.State(5)
	if owner != NoOwner || !sharers.Has(1) || busy {
		t.Errorf("state: %d %v %v", owner, sharers, busy)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 5})
	d.OnRequest(Request{Node: 2, Page: 5})
	env.take()

	// Node 3 wants to write: nodes 1 and 2 must be invalidated first.
	d.OnRequest(Request{Node: 3, Page: 5, Write: true})
	got := env.take()
	if !reflect.DeepEqual(got, []string{"inv:1:0x5", "inv:2:0x5"}) {
		t.Fatalf("log = %v", got)
	}
	if _, _, busy := d.State(5); !busy {
		t.Fatal("entry should be busy awaiting acks")
	}
	if err := d.OnInvAck(1, 5); err != nil {
		t.Fatal(err)
	}
	if got := env.take(); len(got) != 0 {
		t.Fatalf("granted before all acks: %v", got)
	}
	if err := d.OnInvAck(2, 5); err != nil {
		t.Fatal(err)
	}
	got = env.take()
	want := []string{"homeperm:0x5:I", "content:3:0x5:M"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	owner, sharers, busy := d.State(5)
	if owner != 3 || !sharers.Empty() || busy {
		t.Errorf("state: %d %v %v", owner, sharers, busy)
	}
}

func TestWriteFetchesFromOwner(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 7, Write: true})
	env.take() // grant to node 1

	d.OnRequest(Request{Node: 2, Page: 7, Write: true})
	if got := env.take(); !reflect.DeepEqual(got, []string{"fetch:1:0x7:true"}) {
		t.Fatalf("log = %v", got)
	}
	if err := d.OnFetchReply(1, 7, make([]byte, 4096), true); err != nil {
		t.Fatal(err)
	}
	got := env.take()
	want := []string{"writeback:0x7", "homeperm:0x7:I", "content:2:0x7:M"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	owner, _, _ := d.State(7)
	if owner != 2 {
		t.Errorf("owner = %d", owner)
	}
}

func TestReadDowngradesOwner(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 7, Write: true})
	env.take()

	d.OnRequest(Request{Node: 2, Page: 7})
	if got := env.take(); !reflect.DeepEqual(got, []string{"fetch:1:0x7:false"}) {
		t.Fatalf("log = %v", got)
	}
	if err := d.OnFetchReply(1, 7, make([]byte, 4096), false); err != nil {
		t.Fatal(err)
	}
	got := env.take()
	want := []string{"writeback:0x7", "homeperm:0x7:S", "content:2:0x7:S"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
	owner, sharers, _ := d.State(7)
	if owner != NoOwner || !sharers.Has(1) || !sharers.Has(2) {
		t.Errorf("state: %d %v", owner, sharers)
	}
}

func TestMasterUpgradesAfterSharing(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 9})
	env.take()
	// Master writes: node 1 invalidated, then master owns with RW.
	d.OnRequest(Request{Node: Master, Page: 9, Write: true})
	if got := env.take(); !reflect.DeepEqual(got, []string{"inv:1:0x9"}) {
		t.Fatalf("log = %v", got)
	}
	d.OnInvAck(1, 9)
	got := env.take()
	want := []string{"homeperm:0x9:M", "content:0:0x9:M"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("log = %v, want %v", got, want)
	}
}

func TestQueueingWhileBusy(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 4, Write: true})
	env.take()
	// Two readers while a fetch is outstanding.
	d.OnRequest(Request{Node: 2, Page: 4})
	d.OnRequest(Request{Node: 3, Page: 4})
	env.take() // fetch to node 1
	if d.Stats.Queued != 1 {
		t.Errorf("queued = %d", d.Stats.Queued)
	}
	d.OnFetchReply(1, 4, nil, false)
	got := env.take()
	// Node 2's grant plus node 3's drained grant.
	var contents int
	for _, l := range got {
		if l == "content:2:0x4:S" || l == "content:3:0x4:S" {
			contents++
		}
	}
	if contents != 2 {
		t.Errorf("log = %v", got)
	}
}

// A redundant request from the current owner must never ship the stale home
// copy (that would overwrite the owner's modifications — the lost-update bug
// behind the barrier deadlock). It gets a permission-only reaffirmation.
func TestOwnerRerequestReaffirms(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 7, Write: true})
	env.take()

	// Owner's read request (raced with its own write fault).
	d.OnRequest(Request{Node: 1, Page: 7})
	if got := env.take(); !reflect.DeepEqual(got, []string{"reaffirm:1:0x7:M"}) {
		t.Errorf("read re-request: %v", got)
	}
	// Owner's write request.
	d.OnRequest(Request{Node: 1, Page: 7, Write: true})
	if got := env.take(); !reflect.DeepEqual(got, []string{"reaffirm:1:0x7:M"}) {
		t.Errorf("write re-request: %v", got)
	}
	// Ownership unchanged throughout.
	if owner, _, busy := d.State(7); owner != 1 || busy {
		t.Errorf("owner=%d busy=%v", owner, busy)
	}
}

func TestSeedReplicated(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.SeedReplicated(100, NodeSet(0).Add(0).Add(1).Add(2))
	owner, sharers, _ := d.State(100)
	if owner != NoOwner || sharers.Count() != 3 {
		t.Errorf("state: %d %v", owner, sharers)
	}
}

func TestUnexpectedAcksAreErrors(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	if err := d.OnInvAck(1, 5); err == nil {
		t.Error("unexpected inv-ack accepted")
	}
	if err := d.OnFetchReply(1, 5, nil, true); err == nil {
		t.Error("unexpected fetch reply accepted")
	}
}

func TestForwarderTriggersOnStream(t *testing.T) {
	f := NewForwarder(4, 8)
	var pushed []uint64
	for p := uint64(10); p < 14; p++ {
		pushed = f.Record(1, p)
	}
	// 4th sequential request arms the window: pages 14..21.
	if len(pushed) != 8 || pushed[0] != 14 || pushed[7] != 21 {
		t.Fatalf("pushed = %v", pushed)
	}
	// The next demand (inside the pushed window) advances the — now
	// doubled — window without re-pushing what is in flight.
	pushed = f.Record(1, 14)
	if len(pushed) != 9 || pushed[0] != 22 || pushed[8] != 30 {
		t.Errorf("window advance = %v", pushed)
	}
	// A random jump resets the stream.
	if got := f.Record(1, 1000); got != nil {
		t.Errorf("jump pushed %v", got)
	}
	if got := f.Record(1, 1001); got != nil {
		t.Errorf("second sequential pushed %v", got)
	}
}

func TestForwarderPerNodeStreams(t *testing.T) {
	f := NewForwarder(2, 4)
	f.Record(1, 10)
	f.Record(2, 50)
	if got := f.Record(1, 11); len(got) != 4 || got[0] != 12 {
		t.Errorf("node1 = %v", got)
	}
	if got := f.Record(2, 51); len(got) != 4 || got[0] != 52 {
		t.Errorf("node2 = %v", got)
	}
}

func TestSplitterDetection(t *testing.T) {
	s := NewSplitter(4096, 4, 10)
	// Nodes 1 and 2 ping-pong writes to different quarters of page 3.
	var fired bool
	for i := 0; i < 12 && !fired; i++ {
		node := 1 + i%2
		addr := uint64(3*4096) + uint64(i%2)*2048
		fired = s.Record(Request{Node: node, Page: 3, Addr: addr, Write: true})
	}
	if !fired {
		t.Fatal("splitter never fired")
	}
	shadows := s.AllocShadows(3)
	if len(shadows) != 4 {
		t.Fatalf("shadows = %v", shadows)
	}
	for i := 1; i < 4; i++ {
		if shadows[i] != shadows[0]+uint64(i) {
			t.Errorf("shadows not contiguous: %v", shadows)
		}
	}
	// Shadow pages never split.
	if s.Record(Request{Node: 1, Page: shadows[0], Addr: shadows[0] * 4096, Write: true}) {
		t.Error("shadow page splitting")
	}
}

func TestSplitterNeedsTwoNodesAndParts(t *testing.T) {
	s := NewSplitter(4096, 4, 5)
	// Same node hammering: never fires.
	for i := 0; i < 100; i++ {
		if s.Record(Request{Node: 1, Page: 3, Addr: uint64(3*4096) + uint64(i), Write: true}) {
			t.Fatal("fired for single node")
		}
	}
	// Two nodes, same part: never fires.
	s2 := NewSplitter(4096, 4, 5)
	for i := 0; i < 100; i++ {
		if s2.Record(Request{Node: 1 + i%2, Page: 3, Addr: 3 * 4096, Write: true}) {
			t.Fatal("fired for same-part contention")
		}
	}
}

func TestSplitTransactionThroughDirectory(t *testing.T) {
	env := &mockEnv{}
	s := NewSplitter(4096, 4, 3)
	d := New(env, nil, s)
	// Give node 1 ownership of page 3 first.
	d.OnRequest(Request{Node: 1, Page: 3, Addr: 3 * 4096, Write: true})
	env.take()
	// Ping-pong writes until the split fires; the directory must fetch from
	// the current owner before splitting.
	d.OnRequest(Request{Node: 2, Page: 3, Addr: 3*4096 + 2048, Write: true})
	d.OnFetchReply(1, 3, nil, true)
	env.take()
	d.OnRequest(Request{Node: 1, Page: 3, Addr: 3 * 4096, Write: true})
	d.OnFetchReply(2, 3, nil, true)
	env.take()
	d.OnRequest(Request{Node: 2, Page: 3, Addr: 3*4096 + 2048, Write: true})
	got := env.take()
	// The third cross-node request fires the split; owner 1 is revoked.
	if !reflect.DeepEqual(got, []string{"fetch:1:0x3:true"}) {
		t.Fatalf("log = %v", got)
	}
	d.OnFetchReply(1, 3, nil, true)
	got = env.take()
	wantPrefix := []string{"writeback:0x3", "splithome:0x3:4", "remap:0x3:4"}
	if len(got) < 4 || !reflect.DeepEqual(got[:3], wantPrefix) {
		t.Fatalf("log = %v", got)
	}
	if got[3] != "retry:2:0x3" {
		t.Errorf("expected retry to node 2, got %v", got[3])
	}
	if d.Stats.Splits != 1 {
		t.Errorf("splits = %d", d.Stats.Splits)
	}
	// Requests to the retired page bounce with Retry.
	d.OnRequest(Request{Node: 1, Page: 3, Addr: 3 * 4096, Write: true})
	if got := env.take(); !reflect.DeepEqual(got, []string{"retry:1:0x3"}) {
		t.Errorf("log = %v", got)
	}
}

func TestForwardingSkipsOwnedPages(t *testing.T) {
	env := &mockEnv{}
	f := NewForwarder(2, 4)
	d := New(env, f, nil)
	// Node 2 owns page 12 (in the middle of node 1's future stream).
	d.OnRequest(Request{Node: 2, Page: 12, Write: true})
	env.take()
	d.OnRequest(Request{Node: 1, Page: 10})
	d.OnRequest(Request{Node: 1, Page: 11})
	got := env.take()
	var pushes []string
	for _, l := range got {
		if len(l) > 4 && l[:4] == "push" {
			pushes = append(pushes, l)
		}
	}
	want := []string{"push:1:0xc+skip"} // placeholder, checked below
	_ = want
	// Window is 12..15; page 12 is owned by node 2 and must be skipped.
	if !reflect.DeepEqual(pushes, []string{"push:1:0xd", "push:1:0xe", "push:1:0xf"}) {
		t.Errorf("pushes = %v", pushes)
	}
	if d.Stats.Pushes != 3 {
		t.Errorf("pushes stat = %d", d.Stats.Pushes)
	}
}

func TestNodeSet(t *testing.T) {
	var s NodeSet
	s = s.Add(1).Add(5).Add(63)
	if !s.Has(1) || !s.Has(5) || !s.Has(63) || s.Has(2) {
		t.Error("membership broken")
	}
	if s.Count() != 3 {
		t.Errorf("count = %d", s.Count())
	}
	s = s.Remove(5)
	if s.Has(5) || s.Count() != 2 {
		t.Error("remove broken")
	}
	var visited []int
	s.ForEach(func(n int) { visited = append(visited, n) })
	if !reflect.DeepEqual(visited, []int{1, 63}) {
		t.Errorf("visited = %v", visited)
	}
	if s.String() != "{1,63}" {
		t.Errorf("string = %s", s.String())
	}
	if !NodeSet(0).Empty() {
		t.Error("empty broken")
	}
}

// TestOwnedByNamesModifiedPagesOnly: OwnedBy lists, sorted, the pages a node
// holds in Modified state — one whose fetch is still in flight included, a
// shared copy not — and leaves every entry and the environment untouched.
func TestOwnedByNamesModifiedPagesOnly(t *testing.T) {
	env := &mockEnv{}
	d := New(env, nil, nil)
	d.OnRequest(Request{Node: 1, Page: 9, Write: true})
	d.OnRequest(Request{Node: 1, Page: 5, Write: true})
	d.OnRequest(Request{Node: 2, Page: 3, Write: true})
	d.OnRequest(Request{Node: 1, Page: 7})
	d.OnRequest(Request{Node: 2, Page: 7})
	d.OnRequest(Request{Node: 2, Page: 9, Write: true}) // fetch from 1 in flight
	env.take()
	pages := []uint64{3, 5, 7, 9}
	type state struct {
		owner   int
		sharers NodeSet
		busy    bool
	}
	snap := func() []state {
		var s []state
		for _, p := range pages {
			o, sh, b := d.State(p)
			s = append(s, state{o, sh, b})
		}
		return s
	}
	before := snap()
	for node, want := range map[int][]uint64{1: {5, 9}, 2: {3}, 3: nil} {
		if got := d.OwnedBy(node); !reflect.DeepEqual(got, want) {
			t.Errorf("OwnedBy(%d) = %v, want %v", node, got, want)
		}
	}
	if after := snap(); !reflect.DeepEqual(after, before) {
		t.Errorf("directory changed: %v -> %v", before, after)
	}
	if got := env.take(); len(got) != 0 {
		t.Errorf("OwnedBy acted on the environment: %v", got)
	}
}

// nopEnv is a directory environment that does nothing.
type nopEnv struct{}

func (nopEnv) SendContent(int, uint64, mem.Perm)  {}
func (nopEnv) SendReaffirm(int, uint64, mem.Perm) {}
func (nopEnv) SendInvalidate(int, uint64)         {}
func (nopEnv) SendFetch(int, uint64, bool)        {}
func (nopEnv) SendRetry(int, uint64, int64)       {}
func (nopEnv) HomeWriteback(uint64, []byte)       {}
func (nopEnv) HomeSetPerm(uint64, mem.Perm)       {}
func (nopEnv) BroadcastRemap(uint64, []uint64)    {}
func (nopEnv) PushPage(int, uint64)               {}
func (nopEnv) SplitHome(uint64, []uint64)         {}

// TestAllocOwnershipHandoff: write ownership of a page going back and forth
// between two slaves, with a request queued behind each fetch, allocates
// nothing: the request a busy entry waits on is held by value, and the queue
// keeps its array as it drains. (A stashed request was a heap object each,
// and a drained queue lost its array.)
func TestAllocOwnershipHandoff(t *testing.T) {
	d := New(nopEnv{}, nil, nil)
	const page = 5
	data := make([]byte, 64)
	d.OnRequest(Request{Node: 1, Page: page, Write: true})
	handoff := func() {
		d.OnRequest(Request{Node: 2, Page: page, Write: true})      // fetch from 1
		d.OnRequest(Request{Node: 1, Page: page, Write: true})      // queued
		if err := d.OnFetchReply(1, page, data, true); err != nil { // grant 2, then fetch from 2
			t.Fatal(err)
		}
		if err := d.OnFetchReply(2, page, data, true); err != nil { // grant 1
			t.Fatal(err)
		}
	}
	handoff()
	if d.OwnerOf(page) != 1 || d.Stats.Queued != 1 {
		t.Fatalf("after one handoff: owner %d, %d queued; want 1, 1", d.OwnerOf(page), d.Stats.Queued)
	}
	if n := testing.AllocsPerRun(100, handoff); n != 0 {
		t.Errorf("an ownership handoff allocates %v times, want 0", n)
	}
}
