package dsm

// Model checker for the MSI directory: an exhaustive, table-driven
// exploration of (state, event) space on one page with a master and two
// slaves. Unlike the randomized property test (property_test.go), which
// samples long interleavings, this test enumerates EVERY event sequence up
// to a fixed depth and, in every reachable state:
//
//   - checks the owner/sharer invariants (owner excludes sharers, at most
//     one Modified copy, directory view matches the nodes' copies),
//   - checks the transaction bookkeeping (busy iff replies are outstanding,
//     ack counter matches the set of owed acks, no queued requests on an
//     idle entry),
//   - probes every ILLEGAL event (fetch reply nobody asked for, fetch reply
//     from the wrong node, unsolicited or duplicate inv-ack) and asserts the
//     directory rejects it with an error without mutating its state.
//
// A transition table (TestDirectoryTransitionTable) pins the expected
// outcome of each named protocol scenario explicitly.

import (
	"fmt"
	"testing"

	"dqemu/internal/mem"
)

const mcPage = uint64(7)

// mcEv is one model event.
type mcEv struct {
	kind  byte // 'r' request, 'f' fetch reply, 'a' inv ack
	node  int
	write bool
}

func (e mcEv) String() string {
	switch e.kind {
	case 'r':
		op := "R"
		if e.write {
			op = "W"
		}
		return fmt.Sprintf("req(%d,%s)", e.node, op)
	case 'f':
		return "fetchReply"
	case 'a':
		return fmt.Sprintf("invAck(%d)", e.node)
	}
	return "?"
}

// mcEnv plays the nodes' side of the protocol with instantaneous sends and
// explicit obligations (a fetch or inv-ack owed to the directory) that the
// explorer delivers as separate events.
type mcEnv struct {
	t *testing.T
	d *Directory

	perms     [3]int // per node: 0 none, 1 shared, 2 modified
	owedFetch int    // node that owes a fetch reply (0 = none)
	owedInv   bool   // the owed fetch also revokes the copy
	owedAcks  NodeSet
	requested map[[2]int]bool // (node, write) with a request outstanding
}

func newMCEnv(t *testing.T) (*mcEnv, *Directory) {
	env := &mcEnv{t: t, requested: map[[2]int]bool{}}
	// A fresh entry has owner == Master: the home copy is resident and
	// writable on the master until the directory says otherwise.
	env.perms[0] = 2
	d := New(env, nil, nil)
	env.d = d
	return env, d
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (e *mcEnv) SendContent(to int, page uint64, perm mem.Perm) {
	if perm == mem.PermReadWrite {
		e.perms[to] = 2
		delete(e.requested, [2]int{to, 0})
	} else {
		e.perms[to] = 1
	}
	delete(e.requested, [2]int{to, b2i(perm == mem.PermReadWrite)})
}

func (e *mcEnv) SendReaffirm(to int, page uint64, perm mem.Perm) {
	if e.perms[to] == 0 {
		e.t.Fatalf("reaffirm to node %d which holds nothing", to)
	}
	e.SendContent(to, page, perm)
}

func (e *mcEnv) SendInvalidate(to int, page uint64) {
	if e.owedAcks.Has(to) {
		e.t.Fatalf("node %d invalidated twice", to)
	}
	e.owedAcks = e.owedAcks.Add(to)
}

func (e *mcEnv) SendFetch(owner int, page uint64, invalidate bool) {
	if e.owedFetch != 0 {
		e.t.Fatalf("second fetch issued while one is outstanding")
	}
	if e.perms[owner] != 2 {
		e.t.Fatalf("fetch from node %d which does not hold M", owner)
	}
	e.owedFetch, e.owedInv = owner, invalidate
}

func (e *mcEnv) SendRetry(to int, page uint64, tid int64) {
	delete(e.requested, [2]int{to, 0})
	delete(e.requested, [2]int{to, 1})
}

func (e *mcEnv) HomeWriteback(page uint64, data []byte) {}

func (e *mcEnv) HomeSetPerm(page uint64, perm mem.Perm) {
	switch perm {
	case mem.PermNone:
		e.perms[0] = 0
	case mem.PermRead:
		e.perms[0] = 1
	case mem.PermReadWrite:
		e.perms[0] = 2
	}
}

func (e *mcEnv) BroadcastRemap(orig uint64, shadows []uint64) { e.t.Fatal("unexpected remap") }
func (e *mcEnv) PushPage(to int, page uint64)                 { e.t.Fatal("unexpected push") }
func (e *mcEnv) SplitHome(orig uint64, shadows []uint64)      { e.t.Fatal("unexpected split") }

// apply executes one (previously enabled) event.
func (e *mcEnv) apply(ev mcEv) {
	switch ev.kind {
	case 'r':
		e.requested[[2]int{ev.node, b2i(ev.write)}] = true
		e.d.OnRequest(Request{Node: ev.node, TID: int64(ev.node), Page: mcPage,
			Addr: mcPage * 4096, Write: ev.write})
	case 'f':
		owner := e.owedFetch
		e.owedFetch = 0
		if e.owedInv {
			e.perms[owner] = 0
		} else {
			e.perms[owner] = 1
		}
		if err := e.d.OnFetchReply(owner, mcPage, nil, e.owedInv); err != nil {
			e.t.Fatalf("legal fetch reply rejected: %v", err)
		}
	case 'a':
		e.owedAcks = e.owedAcks.Remove(ev.node)
		e.perms[ev.node] = 0
		if err := e.d.OnInvAck(ev.node, mcPage); err != nil {
			e.t.Fatalf("legal inv-ack rejected: %v", err)
		}
	}
}

// enabled returns every event a real cluster could produce in this state: a
// node faults only for an access its copy does not satisfy and blocks while
// its request is outstanding; fetch replies and inv-acks only exist once
// owed.
func (e *mcEnv) enabled() []mcEv {
	var evs []mcEv
	for node := 0; node < 3; node++ {
		for _, write := range []bool{false, true} {
			if write && e.perms[node] == 2 || !write && e.perms[node] >= 1 {
				continue
			}
			if e.requested[[2]int{node, b2i(write)}] {
				continue
			}
			evs = append(evs, mcEv{kind: 'r', node: node, write: write})
		}
	}
	if e.owedFetch != 0 {
		evs = append(evs, mcEv{kind: 'f'})
	}
	e.owedAcks.ForEach(func(n int) {
		evs = append(evs, mcEv{kind: 'a', node: n})
	})
	return evs
}

// entrySnap is the mutable directory state an illegal event must not touch.
type entrySnap struct {
	owner      int
	sharers    NodeSet
	busy       bool
	acksLeft   int
	fetchFrom  int
	invPending NodeSet
	pending    int
}

func snap(e *entry) entrySnap {
	return entrySnap{e.owner, e.sharers, e.busy, e.acksLeft, e.fetchFrom, e.invPending, len(e.pending)}
}

// checkState validates every invariant in the current state.
func (e *mcEnv) checkState(t *testing.T, trace []mcEv) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after %v: %s", trace, fmt.Sprintf(format, args...))
	}
	ent := e.d.pages[mcPage]
	if ent == nil {
		return
	}
	// Copy invariants.
	mods, shared := 0, 0
	for _, p := range e.perms {
		switch p {
		case 2:
			mods++
		case 1:
			shared++
		}
	}
	if mods > 1 {
		fail("%d modified copies", mods)
	}
	if mods == 1 && shared > 0 {
		fail("M coexists with %d shared copies (perms %v)", shared, e.perms)
	}
	// Directory/copy agreement.
	if ent.owner > 0 && !ent.sharers.Empty() {
		fail("owner %d coexists with sharers %v", ent.owner, ent.sharers)
	}
	for node, p := range e.perms {
		if p == 2 && node != 0 && ent.owner != node {
			fail("node %d holds M but directory owner is %d", node, ent.owner)
		}
		if p == 1 && node != 0 && !ent.sharers.Has(node) {
			fail("node %d holds S but is not a sharer (%v)", node, ent.sharers)
		}
	}
	// Transaction bookkeeping.
	obligations := e.owedFetch != 0 || !e.owedAcks.Empty()
	if ent.busy != obligations {
		fail("busy=%v but outstanding replies=%v", ent.busy, obligations)
	}
	if ent.acksLeft != e.owedAcks.Count() || ent.invPending != e.owedAcks {
		fail("directory expects %d acks from %v, env owes %v", ent.acksLeft, ent.invPending, e.owedAcks)
	}
	if ent.fetchFrom != e.owedFetch {
		fail("directory expects a fetch from %d, env owes one from %d", ent.fetchFrom, e.owedFetch)
	}
	if !ent.busy && len(ent.pending) > 0 {
		fail("%d requests queued on an idle entry", len(ent.pending))
	}
}

// probeIllegal fires every event that must NOT be accepted in this state and
// asserts each is rejected with an error and zero state change.
func (e *mcEnv) probeIllegal(t *testing.T, trace []mcEv) {
	t.Helper()
	ent := e.d.entryOf(mcPage)
	before := snap(ent)
	permsBefore := e.perms

	if e.owedFetch == 0 {
		for _, n := range []int{1, 2} {
			if err := e.d.OnFetchReply(n, mcPage, nil, true); err == nil {
				t.Fatalf("after %v: fetch reply from %d accepted with no fetch outstanding", trace, n)
			}
		}
	} else {
		wrong := 3 - e.owedFetch
		if err := e.d.OnFetchReply(wrong, mcPage, nil, e.owedInv); err == nil {
			t.Fatalf("after %v: fetch reply from node %d accepted, but the fetch targets node %d",
				trace, wrong, e.owedFetch)
		}
	}
	for _, n := range []int{1, 2} {
		if !e.owedAcks.Has(n) {
			if err := e.d.OnInvAck(n, mcPage); err == nil {
				t.Fatalf("after %v: unsolicited inv-ack from node %d accepted", trace, n)
			}
		}
	}
	// A reply for a page with no transaction at all is always illegal.
	if err := e.d.OnFetchReply(1, mcPage+1, nil, true); err == nil {
		t.Fatalf("after %v: fetch reply for an untouched page accepted", trace)
	}
	if err := e.d.OnInvAck(1, mcPage+1); err == nil {
		t.Fatalf("after %v: inv-ack for an untouched page accepted", trace)
	}

	if got := snap(ent); got != before {
		t.Fatalf("after %v: rejected event mutated directory state: %+v -> %+v", trace, before, got)
	}
	if e.perms != permsBefore {
		t.Fatalf("after %v: rejected event mutated node copies", trace)
	}
}

// TestDirectoryModelCheck exhaustively explores every event sequence up to
// the depth bound, replaying each prefix from scratch so states are
// independent.
func TestDirectoryModelCheck(t *testing.T) {
	const depth = 6
	states := 0
	var explore func(seq []mcEv)
	explore = func(seq []mcEv) {
		env, _ := newMCEnv(t)
		for _, ev := range seq {
			env.apply(ev)
		}
		env.checkState(t, seq)
		env.probeIllegal(t, seq)
		states++
		if len(seq) == depth {
			return
		}
		for _, ev := range env.enabled() {
			explore(append(seq[:len(seq):len(seq)], ev))
		}
	}
	explore(nil)
	t.Logf("explored %d states to depth %d", states, depth)
	if states < 1000 {
		t.Fatalf("state space suspiciously small: %d states", states)
	}
}

// TestDirectoryTransitionTable pins named protocol scenarios to their
// expected end state, send counts, and error behavior.
func TestDirectoryTransitionTable(t *testing.T) {
	type expect struct {
		owner   int
		sharers NodeSet
		busy    bool
	}
	cases := []struct {
		name  string
		seq   []mcEv
		want  expect
		perms [3]int
	}{
		{
			name:  "read miss shares the home copy",
			seq:   []mcEv{{kind: 'r', node: 1}},
			want:  expect{owner: NoOwner, sharers: NodeSet(0).Add(1)},
			perms: [3]int{1, 1, 0},
		},
		{
			name:  "two readers coexist",
			seq:   []mcEv{{kind: 'r', node: 1}, {kind: 'r', node: 2}},
			want:  expect{owner: NoOwner, sharers: NodeSet(0).Add(1).Add(2)},
			perms: [3]int{1, 1, 1},
		},
		{
			name: "write upgrade invalidates the other sharer",
			seq: []mcEv{
				{kind: 'r', node: 1}, {kind: 'r', node: 2},
				{kind: 'r', node: 1, write: true}, {kind: 'a', node: 2},
			},
			want:  expect{owner: 1},
			perms: [3]int{0, 2, 0},
		},
		{
			name: "write-write migration via fetch-invalidate",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 2, write: true}, {kind: 'f'},
			},
			want:  expect{owner: 2},
			perms: [3]int{0, 0, 2},
		},
		{
			name: "remote read downgrades the owner",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 2}, {kind: 'f'},
			},
			want:  expect{owner: NoOwner, sharers: NodeSet(0).Add(1).Add(2)},
			perms: [3]int{1, 1, 1},
		},
		{
			name: "master write pulls the page home",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 0, write: true}, {kind: 'f'},
			},
			want:  expect{owner: Master},
			perms: [3]int{2, 0, 0},
		},
		{
			name: "owner read re-request is reaffirmed, not overwritten",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 1},
			},
			want:  expect{owner: 1},
			perms: [3]int{0, 2, 0},
		},
		{
			name: "request queued behind a busy fetch is served after it",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 2, write: true}, // busy: fetch owed from 1
				{kind: 'r', node: 1},              // queued
				{kind: 'f'},                       // grants 2 M, then fetches it back for 1's read
				{kind: 'f'},
			},
			want:  expect{owner: NoOwner, sharers: NodeSet(0).Add(1).Add(2)},
			perms: [3]int{1, 1, 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, d := newMCEnv(t)
			for _, ev := range tc.seq {
				env.apply(ev)
			}
			ent := d.entryOf(mcPage)
			if ent.owner != tc.want.owner || ent.sharers != tc.want.sharers || ent.busy != tc.want.busy {
				t.Fatalf("end state owner=%d sharers=%v busy=%v, want %+v",
					ent.owner, ent.sharers, ent.busy, tc.want)
			}
			if env.perms != tc.perms {
				t.Fatalf("node copies %v, want %v", env.perms, tc.perms)
			}
			env.checkState(t, tc.seq)
			env.probeIllegal(t, tc.seq)
		})
	}
}

// TestDirectoryRejectsStaleReplies spells out the rejection table the model
// checker probes implicitly: each row is an illegal (state, event) pair.
func TestDirectoryRejectsStaleReplies(t *testing.T) {
	cases := []struct {
		name string
		seq  []mcEv // setup
		fire func(d *Directory) error
	}{
		{
			name: "fetch reply with no transaction",
			fire: func(d *Directory) error { return d.OnFetchReply(1, mcPage, nil, true) },
		},
		{
			name: "inv-ack with no transaction",
			fire: func(d *Directory) error { return d.OnInvAck(1, mcPage) },
		},
		{
			name: "fetch reply while only invalidations are outstanding",
			seq: []mcEv{
				{kind: 'r', node: 1}, {kind: 'r', node: 2},
				{kind: 'r', node: 0, write: true}, // invalidates 1 and 2; no fetch
			},
			fire: func(d *Directory) error { return d.OnFetchReply(1, mcPage, nil, true) },
		},
		{
			name: "fetch reply from the wrong node",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 2, write: true}, // fetch owed from 1
			},
			fire: func(d *Directory) error { return d.OnFetchReply(2, mcPage, nil, true) },
		},
		{
			name: "duplicate fetch reply",
			seq: []mcEv{
				{kind: 'r', node: 1, write: true},
				{kind: 'r', node: 2, write: true}, {kind: 'f'},
			},
			fire: func(d *Directory) error { return d.OnFetchReply(1, mcPage, nil, true) },
		},
		{
			name: "inv-ack from a node that was not invalidated",
			seq: []mcEv{
				{kind: 'r', node: 1}, {kind: 'r', node: 2, write: true}, // invalidates 1 only
			},
			fire: func(d *Directory) error { return d.OnInvAck(2, mcPage) },
		},
		{
			name: "duplicate inv-ack",
			seq: []mcEv{
				{kind: 'r', node: 1}, {kind: 'r', node: 2},
				{kind: 'r', node: 0, write: true}, {kind: 'a', node: 1},
			},
			fire: func(d *Directory) error { return d.OnInvAck(1, mcPage) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, d := newMCEnv(t)
			for _, ev := range tc.seq {
				env.apply(ev)
			}
			if err := tc.fire(d); err == nil {
				t.Fatal("illegal transition accepted")
			}
		})
	}
}
