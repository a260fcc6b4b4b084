package sanitizer

import "sort"

// Race is one detected happens-before violation between two guest accesses.
// PrevTID/PrevPC/PrevNode describe the recorded earlier access, TID/PC the
// access that tripped the check. Node is where the detection fired; when the
// two threads run on different nodes the race crossed the DSM.
type Race struct {
	Kind    string `json:"kind"` // write-write, read-write, write-read
	Addr    uint64 `json:"addr"`
	TID     int64  `json:"tid"`
	PC      uint64 `json:"pc"`
	PrevTID int64  `json:"prev_tid"`
	PrevPC  uint64 `json:"prev_pc"`
	Node    int    `json:"node"`
}

// Diag is one static lint finding from the translate-time IR passes.
type Diag struct {
	Kind   string `json:"kind"` // unpaired-ll, unpaired-sc, misaligned-atomic, redundant-fence, store-to-code
	PC     uint64 `json:"pc"`
	Detail string `json:"detail"`
}

// Stats counts what the instrumentation observed on one node.
type Stats struct {
	Loads   uint64 `json:"loads"`
	Stores  uint64 `json:"stores"`
	Atomics uint64 `json:"atomics"`
	Fences  uint64 `json:"fences"`
}

// Node is the per-node DQSan state: thread vector clocks, shadow pages for
// every guest page currently resident here, and the sync-object clocks that
// carry release/acquire edges. All methods run on the deterministic
// simulation's single event loop, so there is no locking and reports are
// reproducible run to run.
type Node struct {
	id       int
	pageSize int

	clocks map[int64]*VC          // guest tid -> thread clock
	pages  map[uint64]*pageShadow // translated page number -> shadow
	fence  VC                     // node-local fence release clock

	// Master-only state (the master's Node doubles as the home for
	// cross-node edges, mirroring how the directory lives on node 0).
	futexRel map[uint64]*VC // futex word taddr -> accumulated waker clocks
	exited   map[int64]VC   // dead tid -> final clock, for join edges

	races    []Race
	raceKeys map[Race]bool
	diags    []Diag
	diagKeys map[Diag]bool

	Stats Stats
}

// New creates the sanitizer state for one node.
func New(id, pageSize int) *Node {
	return &Node{
		id:       id,
		pageSize: pageSize,
		clocks:   map[int64]*VC{},
		pages:    map[uint64]*pageShadow{},
		futexRel: map[uint64]*VC{},
		exited:   map[int64]VC{},
		raceKeys: map[Race]bool{},
		diagKeys: map[Diag]bool{},
	}
}

// clockOf returns tid's clock, creating it with its own component at 1 so a
// fresh thread is never ordered before everything.
func (n *Node) clockOf(tid int64) *VC {
	if c, ok := n.clocks[tid]; ok {
		return c
	}
	c := &VC{}
	c.Tick(tid)
	n.clocks[tid] = c
	return c
}

func (n *Node) page(taddr uint64, create bool) *pageShadow {
	pg := taddr / uint64(n.pageSize)
	if p, ok := n.pages[pg]; ok {
		return p
	}
	if !create {
		return nil
	}
	p := newPageShadow(n.pageSize)
	n.pages[pg] = p
	return p
}

func (n *Node) report(r Race) {
	key := r
	key.Addr, key.TID, key.PrevTID, key.Node = 0, 0, 0, 0
	if n.raceKeys[key] {
		return
	}
	n.raceKeys[key] = true
	n.races = append(n.races, r)
}

// Report records a static diagnostic, deduplicated by (kind, pc).
func (n *Node) Report(d Diag) {
	key := Diag{Kind: d.Kind, PC: d.PC}
	if n.diagKeys[key] {
		return
	}
	n.diagKeys[key] = true
	n.diags = append(n.diags, d)
}

// ---- instrumentation hooks (tcg.SanHook) ----

// OnLoad checks a plain guest load against the shadow word(s) it touches.
func (n *Node) OnLoad(tid int64, taddr uint64, size int, pc uint64) {
	n.Stats.Loads++
	n.eachWord(taddr, size, func(p *pageShadow, c *cell, wordOff uint64, off, sz uint8) {
		vc := n.clockOf(tid)
		if c.atomic {
			// Plain read of a sync word (TTAS spin, barrier generation
			// check): it observes the value an atomic release published,
			// so it acquires that word's release clock instead of being
			// race-checked.
			if s := p.syncClock(wordOff, false); s != nil {
				vc.Merge(*s)
			}
			return
		}
		w := c.write
		if w.tid != 0 && w.tid != tid && w.overlaps(off, sz) && w.clk > vc.Get(w.tid) {
			n.report(Race{Kind: "write-read", Addr: taddr, TID: tid, PC: pc,
				PrevTID: w.tid, PrevPC: w.pc, Node: n.id})
		}
		c.recordRead(access{tid: tid, clk: vc.Get(tid), off: off, size: sz, pc: pc})
	})
}

// OnStore checks a plain guest store against the shadow word(s) it touches.
func (n *Node) OnStore(tid int64, taddr uint64, size int, pc uint64) {
	n.Stats.Stores++
	n.eachWord(taddr, size, func(p *pageShadow, c *cell, wordOff uint64, off, sz uint8) {
		if c.atomic {
			// Plain store to a sync word (barrier counter reset) — the
			// runtime guarantees its own ordering for these; checking
			// them against concurrent atomics would be pure noise.
			return
		}
		vc := n.clockOf(tid)
		w := c.write
		if w.tid != 0 && w.tid != tid && w.overlaps(off, sz) && w.clk > vc.Get(w.tid) {
			n.report(Race{Kind: "write-write", Addr: taddr, TID: tid, PC: pc,
				PrevTID: w.tid, PrevPC: w.pc, Node: n.id})
		}
		for _, r := range c.reads {
			if r.tid != 0 && r.tid != tid && r.overlaps(off, sz) && r.clk > vc.Get(r.tid) {
				n.report(Race{Kind: "read-write", Addr: taddr, TID: tid, PC: pc,
					PrevTID: r.tid, PrevPC: r.pc, Node: n.id})
			}
		}
		c.write = access{tid: tid, clk: vc.Get(tid), off: off, size: sz, pc: pc}
		if off == 0 && sz == 8 {
			// A full-word write supersedes all recorded reads.
			c.reads = [readSlots]access{}
		}
	})
}

// OnAtomic records a guest atomic (LL, SC, CAS, AMO). The word is marked as
// a sync object. Every atomic acquires the word's release clock; successful
// writers (SC/CAS success, AMO) also release into it and tick, creating the
// happens-before edge lock implementations depend on.
func (n *Node) OnAtomic(tid int64, taddr uint64, size int, pc uint64, release bool) {
	n.Stats.Atomics++
	p := n.page(taddr, true)
	word := (taddr % uint64(n.pageSize)) / 8 * 8
	idx := word / 8
	if int(idx) < len(p.cells) {
		p.cells[idx].atomic = true
	}
	vc := n.clockOf(tid)
	s := p.syncClock(word, true)
	vc.Merge(*s)
	if release {
		s.Merge(*vc)
		vc.Tick(tid)
	}
}

// OnFence gives guest fences release/acquire semantics against a node-local
// fence clock: every fence synchronizes with every earlier fence on the node.
func (n *Node) OnFence(tid int64) {
	n.Stats.Fences++
	vc := n.clockOf(tid)
	vc.Merge(n.fence)
	n.fence.Merge(*vc)
	vc.Tick(tid)
}

// eachWord splits a byte-range access into per-word shadow accesses (an
// unaligned access touches at most two cells).
func (n *Node) eachWord(taddr uint64, size int, f func(p *pageShadow, c *cell, wordOff uint64, off, sz uint8)) {
	for size > 0 {
		word := taddr / 8 * 8
		off := uint8(taddr - word)
		sz := 8 - int(off)
		if sz > size {
			sz = size
		}
		p := n.page(taddr, true)
		inPage := word % uint64(n.pageSize)
		idx := inPage / 8
		if int(idx) < len(p.cells) {
			f(p, &p.cells[idx], inPage, off, uint8(sz))
		}
		taddr += uint64(sz)
		size -= sz
	}
}

// ---- thread-clock plumbing (syscalls, futex, lifecycle, migration) ----

// SyscallClock snapshots tid's clock for attachment to a delegated syscall,
// then ticks: later accesses by tid must not appear ordered before whatever
// the master does with this clock.
func (n *Node) SyscallClock(tid int64) []byte {
	vc := n.clockOf(tid)
	b := vc.Encode()
	vc.Tick(tid)
	return b
}

// Acquire merges a clock blob into tid's clock (syscall replies, thread
// start, futex wakeups). Invalid blobs are ignored — they can only come
// from a corrupted transport, which the ARQ layer already surfaces.
func (n *Node) Acquire(tid int64, blob []byte) {
	if len(blob) == 0 {
		return
	}
	v, _, err := DecodeVC(blob)
	if err != nil {
		return
	}
	n.clockOf(tid).Merge(v)
}

// FutexWake accumulates a waker's clock on the futex word (master side).
// Called before the wake fires so synchronously-released waiters see it.
func (n *Node) FutexWake(taddr uint64, blob []byte) {
	if len(blob) == 0 {
		return
	}
	v, _, err := DecodeVC(blob)
	if err != nil {
		return
	}
	c, ok := n.futexRel[taddr]
	if !ok {
		c = &VC{}
		n.futexRel[taddr] = c
	}
	c.Merge(v)
}

// FutexWaitClock builds the clock a FutexWait reply carries back to the
// waiter: everything released on this futex word plus the release clock of
// the word itself (covers the value-check EAGAIN path, where the waiter
// proceeds because it observed a value some atomic published).
func (n *Node) FutexWaitClock(taddr uint64) []byte {
	var v VC
	if c, ok := n.futexRel[taddr]; ok {
		v.Merge(*c)
	}
	if p := n.page(taddr, false); p != nil {
		if s := p.syncClock(taddr%uint64(n.pageSize)/8*8, false); s != nil {
			v.Merge(*s)
		}
	}
	if len(v) == 0 {
		return nil
	}
	return v.Encode()
}

// RecordExit stores a dying thread's final clock (from its exit syscall)
// so joiners can acquire it.
func (n *Node) RecordExit(tid int64, blob []byte) {
	if len(blob) == 0 {
		n.exited[tid] = VC{}
		return
	}
	v, _, err := DecodeVC(blob)
	if err != nil {
		v = VC{}
	}
	n.exited[tid] = v
}

// JoinClock returns the exit clock of a joined thread for the join reply.
func (n *Node) JoinClock(tid int64) []byte {
	v, ok := n.exited[tid]
	if !ok || len(v) == 0 {
		return nil
	}
	return v.Encode()
}

// EncodeThread snapshots tid's clock for migration.
func (n *Node) EncodeThread(tid int64) []byte {
	return n.clockOf(tid).Encode()
}

// InstallThread installs a migrated or newly-created thread's clock and
// ticks its own component so it is never the zero clock.
func (n *Node) InstallThread(tid int64, blob []byte) {
	v := VC{}
	if len(blob) > 0 {
		if d, _, err := DecodeVC(blob); err == nil {
			v = d
		}
	}
	v.Tick(tid)
	n.clocks[tid] = &v
}

// DropThread forgets a thread that migrated away.
func (n *Node) DropThread(tid int64) {
	delete(n.clocks, tid)
}

// ---- shadow-page plumbing (DSM coherence) ----

// EncodePage serialises the shadow of a resident page (nil when the page
// has no shadow state — the common case for untouched pages).
func (n *Node) EncodePage(page uint64) []byte {
	p, ok := n.pages[page]
	if !ok {
		return nil
	}
	return p.encode()
}

// MergePage folds an incoming shadow copy into the local one: page grants
// and pushes at a sharer, fetch replies and invalidation acks at the home node.
func (n *Node) MergePage(page uint64, blob []byte) {
	if len(blob) == 0 {
		return
	}
	in, err := decodePageShadow(blob, n.pageSize)
	if err != nil {
		return
	}
	p, ok := n.pages[page]
	if !ok {
		n.pages[page] = in
		return
	}
	p.merge(in)
}

// DropPage forgets a page's shadow after it has been shipped home.
func (n *Node) DropPage(page uint64) {
	delete(n.pages, page)
}

// SplitPage redistributes a split page's shadow onto its shadow pages,
// preserving in-page offsets to mirror dsm's SplitHome layout.
func (n *Node) SplitPage(orig uint64, shadows []uint64) {
	p, ok := n.pages[orig]
	if !ok || len(shadows) == 0 {
		return
	}
	parts := p.split(len(shadows), n.pageSize)
	delete(n.pages, orig)
	for i, pg := range shadows {
		if !parts[i].isEmpty() {
			n.pages[pg] = parts[i]
		}
	}
}

func (p *pageShadow) isEmpty() bool {
	if len(p.sync) > 0 {
		return false
	}
	for i := range p.cells {
		if !p.cells[i].empty() {
			return false
		}
	}
	return true
}

// ---- reporting ----

// Summary aggregates races, diagnostics and counters across nodes.
type Summary struct {
	Races []Race `json:"races"`
	Diags []Diag `json:"diags"`
	Stats Stats  `json:"stats"`
}

// Races returns this node's deduplicated race reports.
func (n *Node) Races() []Race { return n.races }

// Diags returns this node's deduplicated static diagnostics.
func (n *Node) Diags() []Diag { return n.diags }

// Summarize merges per-node sanitizer state into one deterministic summary:
// reports are deduplicated across nodes by code location and sorted.
func Summarize(nodes []*Node) *Summary {
	s := &Summary{}
	raceSeen := map[Race]bool{}
	diagSeen := map[Diag]bool{}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		for _, r := range n.races {
			key := r
			key.Addr, key.TID, key.PrevTID, key.Node = 0, 0, 0, 0
			if !raceSeen[key] {
				raceSeen[key] = true
				s.Races = append(s.Races, r)
			}
		}
		for _, d := range n.diags {
			key := Diag{Kind: d.Kind, PC: d.PC}
			if !diagSeen[key] {
				diagSeen[key] = true
				s.Diags = append(s.Diags, d)
			}
		}
		s.Stats.Loads += n.Stats.Loads
		s.Stats.Stores += n.Stats.Stores
		s.Stats.Atomics += n.Stats.Atomics
		s.Stats.Fences += n.Stats.Fences
	}
	sort.Slice(s.Races, func(i, j int) bool {
		a, b := s.Races[i], s.Races[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.PrevPC != b.PrevPC {
			return a.PrevPC < b.PrevPC
		}
		return a.Kind < b.Kind
	})
	sort.Slice(s.Diags, func(i, j int) bool {
		a, b := s.Diags[i], s.Diags[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	return s
}
