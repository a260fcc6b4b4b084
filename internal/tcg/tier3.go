// Compiled traces: closure compilation of superblocks.
//
// A trace is compiled the moment it forms (promote in trace.go), out of the
// micro-op array entirely: every uop becomes a small specialized Go closure
// with its operands, widths, sign shifts and branch polarity resolved at
// compile time — no dispatch switch, no per-uop bounds checks, no per-uop
// operand decode. This is the "foregoing the IR" model: the IR is a
// compile-time artefact and the host program *is* the translation. (The
// type and counter names say tier3 because the ladder once had a uop
// dispatch loop between the block interpreter and this.)
//
// Execution is subroutine-threaded: the closures of one straight-line
// segment are chained (`return next(c)`), so every indirect call site is
// monomorphic — one caller, one target — and predicts perfectly. (A flat
// dispatch loop calling ops[k](c) was measured 10-20% slower: its single
// call site is megamorphic and mispredicts on nearly every op.) A tier3
// is a flat array of chunks, each a chain of at most t3ChunkOps fused
// closures (bounding the chain keeps the host's return-address stack from
// overflowing on long straight-line segments). A segment's aggregate
// virtual cost and guest-instruction count live on its first chunk and
// are charged inline by the trampoline — branch-free adds, no charge
// closure call. A trace's final back-edge or exit, when it is a segment of
// its own, charges nothing and gets no chunk: its closure is the previous
// segment's fall-through.
//
// The closures of 8-byte accesses — all but a few percent of the memory
// traffic — keep a per-site TLB line in each access's memAcc: one static
// load/store site overwhelmingly re-touches the page it touched last, so the
// hit path is a page-number compare against the access's own line instead of
// an index into the engine's shared TLB array. Misses revalidate through the
// engine TLB / softmmu and refill the site line. Narrower accesses index the
// engine TLB.
//
// Coherence: the translation cache is flushed only between Exec calls
// (ClearCache panics inside one), so a compiled trace that starts running
// runs on live code until it exits or its quantum ends, and nothing in the
// trampoline revalidates it. A fault inside a segment refunds the unexecuted
// tail from the faultSite its closure captured at compile time, so
// restart-at-faulting-instruction semantics are bit-identical to the block
// interpreter's.
//
// Closures must allocate only at compile time: the execution path is
// zero-alloc (enforced by the dqlint t3alloc rule and pinned by
// TestTier3ExecAllocs). They must not read the uop stream at run time
// either: it is scratch the next trace is lowered into (the t3scratch rule).
package tcg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// t3op is one compiled micro-op (possibly several fused guest ops): it
// mutates guest state through the context and either calls the next
// closure of the chain or returns a disposition to the trampoline.
// Dispositions bubble up through the chain's returns, so a fault deep
// inside a segment unwinds naturally.
type t3op func(c *t3ctx) int32

// Trampoline dispositions returned by the closure chain.
const (
	t3Next   int32 = iota // chunk ran off its end: advance to the next chunk
	t3Loop                // back-edge: re-enter the head (budget checked by the trampoline)
	t3Exit                // trace exit: PC and c.next are set; resume in Exec
	t3Switch              // jump-cache hit on a compiled target: tail-enter c.sw
	t3Stop                // quantum ends: c.res/c.stop are set

	// t3Cont is an internal sentinel returned by the shared fault/atomic
	// helpers: "no disposition — continue down the chain". It never
	// reaches the trampoline.
	t3Cont int32 = -1
)

// t3ctx is the execution context threaded through the closure chain. Exec
// does not nest, so the Engine keeps one and execution never allocates.
type t3ctx struct {
	e        *Engine
	cpu      *CPU
	x        *[32]uint64
	f        *[32]float64
	spent    *int64 // points at spentv; never at a caller's stack slot
	spentv   int64  // keeps the caller's accumulator from escaping to the heap
	budget   int64
	executed uint64
	monEmpty bool
	next     *block
	sw       *tier3
	res      Result
	stop     bool
}

// t3chunk is one trampoline step: a closure chain plus the charge the
// trampoline applies inline before calling it. Only a segment's first
// chunk carries a nonzero cost/insns (continuation chunks cut mid-segment
// charge nothing).
type t3chunk struct {
	fn    t3op
	cost  int64
	insns uint64
}

// tier3 is the closure-compiled form of a superblock: a flat chunk array
// the trampoline walks on disposition codes.
type tier3 struct {
	entry  uint64
	chunks []t3chunk
}

// t3ChunkOps caps the closure-chain depth of one chunk, comfortably under
// typical hardware return-address-stack depth (16) with room for the
// trampoline and Exec frames beneath.
const t3ChunkOps = 10

// t3adv ends a chunk that was cut mid-segment: hand control back to the
// trampoline, which calls the next chunk in the array.
func t3adv(c *t3ctx) int32 { return t3Next }

var errT3Fall = fmt.Errorf("tcg: compiled trace fell off the end")

func (e *Engine) t3release(c *t3ctx, spent *int64) {
	*spent = c.spentv
	e.Stats.Tier3Insns += c.executed
	e.Stats.ExecInsns += c.executed
	c.cpu, c.x, c.f, c.spent = nil, nil, nil, nil
	c.next, c.sw = nil, nil
}

// execTier3 is the trampoline: it walks the chunk array, applying each
// chunk's charge inline, and handles the dispositions that unwind out of the
// closure chains. Like execBlock it returns the chained next block (nil when
// a cache lookup is needed) or stop=true with a Result; budgetNs bounds
// in-trace loops and switches.
func (e *Engine) execTier3(cpu *CPU, t3 *tier3, spent *int64, budgetNs int64) (*block, Result, bool) {
	c := &e.t3
	c.e, c.cpu = e, cpu
	c.x, c.f = &cpu.X, &cpu.F
	// Accumulate into the engine's context, not through the caller's pointer:
	// stashing spent itself in the (heap-resident) context would force the
	// caller's accumulator to escape, costing one allocation per Exec.
	c.spentv = *spent
	c.spent, c.budget = &c.spentv, budgetNs
	c.executed = 0
	c.monEmpty = e.Mon.Empty()
	c.next, c.sw, c.stop = nil, nil, false
	c.res = Result{}

	chunks := t3.chunks
	ci := 0
	for {
		ch := &chunks[ci]
		c.spentv += ch.cost
		c.executed += ch.insns
		switch ch.fn(c) {
		case t3Next:
			ci++
			continue
		case t3Loop:
			if c.spentv >= budgetNs {
				cpu.PC = t3.entry
				e.t3release(c, spent)
				return nil, Result{}, false
			}
			ci = 0 // re-enter the head; the entry charge reapplies
		case t3Switch:
			if c.spentv >= budgetNs {
				// Quantum exhausted at a trace boundary; PC is already at
				// the target trace's entry.
				c.sw = nil
				e.t3release(c, spent)
				return nil, Result{}, false
			}
			t3 = c.sw
			c.sw = nil
			chunks = t3.chunks
			ci = 0
		case t3Exit:
			next := c.next
			e.t3release(c, spent)
			return next, Result{}, false
		default: // t3Stop
			res := c.res
			e.t3release(c, spent)
			return nil, res, true
		}
	}
}

// t3seg is the fusion plan for one cost segment: ops[first:last] are the
// straight-line mids, ops[last] the terminating boundary uop.
type t3seg struct {
	first, last int
	units       []t3unit
	groups      []int // group start indices into units (mem-run fusion)
}

// t3plan is the complete compilation plan for a superblock: segment
// boundaries, the fused tail, and each segment's fusion units and
// memory-run groups. compileTier3 consumes it mechanically, which makes
// the plan the single structure the checker (tier3check.go) has to
// validate against the uop sequence.
type t3plan struct {
	starts   []int // segment start indices, one per segBoundary
	fuseTail bool  // trailing bare uLoopBack or uExit is the predecessor's fall-through
	segs     []t3seg

	// Backing arrays of every segment's units and groups. A plan is dead
	// once its consumer returns, so the engine replans into the same one.
	units  []t3unit
	groups []int
}

// planTier3 derives the compilation plan from a segmentized uop array into
// p, reusing p's arrays. Returns false when the shape is not compilable
// (empty trace or no trailing segment boundary).
func planTier3(p *t3plan, ops []uop) bool {
	if len(ops) == 0 || !segBoundary(ops[len(ops)-1].kind) {
		return false
	}
	// Each array is sized once — segs by the segment count the first pass
	// finds, the others by len(ops), which bounds them — so the appends below
	// never move one under the segments already cut from it.
	*p = t3plan{starts: slices.Grow(p.starts[:0], len(ops)), segs: p.segs[:0],
		units: slices.Grow(p.units[:0], len(ops)), groups: slices.Grow(p.groups[:0], len(ops))}
	segStart := 0
	for i := range ops {
		if segBoundary(ops[i].kind) {
			p.starts = append(p.starts, segStart)
			segStart = i + 1
		}
	}
	p.segs = slices.Grow(p.segs, len(p.starts))

	// A final segment that is a bare back-edge or exit becomes its
	// predecessor's fall-through: it charges nothing, so it needs no chunk.
	nseg := len(p.starts)
	if k := ops[len(ops)-1].kind; nseg >= 2 && p.starts[nseg-1] == len(ops)-1 && (k == uLoopBack || k == uExit) {
		p.fuseTail = true
		nseg--
	}

	for s := 0; s < nseg; s++ {
		first := p.starts[s]
		last := len(ops) - 1
		if s+1 < len(p.starts) {
			last = p.starts[s+1] - 1
		}
		seg := t3seg{first: first, last: last, units: p.units[len(p.units):], groups: p.groups[len(p.groups):]}
		// Fusion plan for the straight-line mids: a greedy forward scan
		// folds address-bump addis into their neighbouring memory ops (pre:
		// addi right before the access, may feed the address; post: addi
		// right after it) and pairs leftover adjacent addis. One unit = one
		// compiled closure, so an addi-load-addi triple retires in a single
		// call.
		for j := first; j < last; {
			k := ops[j].kind
			if isAddi(&ops[j]) && j+1 < last && memFusable(ops[j+1].kind) {
				un := t3unit{op: j + 1, pre: j, post: -1, pair: -1}
				j += 2
				if j < last && isAddi(&ops[j]) {
					un.post = j
					j++
				}
				seg.units = append(seg.units, un)
				continue
			}
			if memFusable(k) {
				un := t3unit{op: j, pre: -1, post: -1, pair: -1}
				j++
				if j < last && isAddi(&ops[j]) {
					un.post = j
					j++
				}
				seg.units = append(seg.units, un)
				continue
			}
			if isAddi(&ops[j]) && j+1 < last && isAddi(&ops[j+1]) {
				seg.units = append(seg.units, t3unit{op: j, pre: -1, post: -1, pair: j + 1})
				j += 2
				continue
			}
			if isAddi(&ops[j]) && j+1 < last && addiMidable(&ops[j+1]) {
				seg.units = append(seg.units, t3unit{op: j + 1, pre: j, post: -1, pair: -1})
				j += 2
				continue
			}
			seg.units = append(seg.units, t3unit{op: j, pre: -1, post: -1, pair: -1})
			j++
		}
		// Second-level fusion: runs of up to t3MemRun adjacent 8-byte
		// loads/stores (integer or double FP, each keeping its own addi
		// fusions and site TLB line) collapse into one closure: load-load,
		// store-addi-load and fload-fload runs. Wider runs amortize the
		// per-closure call overhead that dominates mem-heavy inner loops.
		for k := 0; k < len(seg.units); {
			g := 1
			if pair8able(ops, seg.units[k]) {
				for g < t3MemRun && k+g < len(seg.units) && pair8able(ops, seg.units[k+g]) {
					g++
				}
			}
			seg.groups = append(seg.groups, k)
			k += g
		}
		p.units = p.units[:len(p.units)+len(seg.units)]
		p.groups = p.groups[:len(p.groups)+len(seg.groups)]
		p.segs = append(p.segs, seg)
	}
	return true
}

// compileTier3 compiles sb's segmentized stream ops into a chunk array
// (buildTrace has already charged the translation). Each cost segment
// becomes one chunk: a fusion plan over the straight-line mids (addi
// absorption, mem pairing) followed by one leaf closure per plan unit plus
// the compiled tail. Returns nil when the superblock contains a shape the
// closure compiler does not handle (install then leaves its head on the
// block interpreter).
func (e *Engine) compileTier3(sb *superblock, ops []uop) *tier3 {
	plan := &e.plan
	if !planTier3(plan, ops) {
		return nil
	}
	t3 := &tier3{entry: sb.entry}
	nseg := len(plan.segs)

	// A segment is a head chunk plus one per t3ChunkOps groups cut off its
	// end. Segments compile last first, so their chunks fill the array from
	// the back, and every fault site is asked for at a lower index than the
	// one before it: one backward walk over the stream serves them all.
	ci := 0
	for s := range plan.segs {
		ci += 1 + len(plan.segs[s].groups)/t3ChunkOps
	}
	t3.chunks = make([]t3chunk, ci)
	sites := newSiteWalk(ops)

	// The last compiled segment falls through into the fused tail (a bare
	// back-edge or exit, which ignores its own next) or, when it ends in a
	// true exit, into a defensive stop that never runs.
	tailNext := t3op(func(c *t3ctx) int32 {
		c.cpu.PC = t3.entry
		c.res = Result{Reason: StopError, Err: errT3Fall}
		c.stop = true
		return t3Stop
	})
	if plan.fuseTail {
		tailNext = e.compileTail(sb, ops, len(ops)-1, &sites, nil)
	}
	for s := nseg - 1; s >= 0; s-- {
		first := plan.segs[s].first
		last := plan.segs[s].last
		var next t3op = t3adv
		if s == nseg-1 {
			next = tailNext
		}
		tail := e.compileTail(sb, ops, last, &sites, next)
		if tail == nil {
			return nil
		}
		units := plan.segs[s].units
		groups := plan.segs[s].groups
		fn := tail
		n := 1
		for gi := len(groups) - 1; gi >= 0; gi-- {
			if n == t3ChunkOps {
				ci--
				t3.chunks[ci] = t3chunk{fn: fn}
				fn = t3adv
				n = 0
			}
			start := groups[gi]
			end := len(units)
			if gi+1 < len(groups) {
				end = groups[gi+1]
			}
			un := units[start]
			switch k := ops[un.op].kind; {
			case pair8able(ops, un):
				// A group of several is a run of these by construction; one
				// on its own is a run of one.
				fn = e.compileMemRun(ops, units[start:end], &sites, fn)
			case k == uLoad:
				fn = e.compileLoad(ops, un, &sites, fn)
			case k == uStore:
				fn = e.compileStore(ops, un, &sites, fn)
			case un.pair >= 0:
				fn = compileAddiPair(ops, un, fn)
			case un.pre >= 0:
				fn = compileAddiMul(ops, un, fn)
			default:
				fn = e.compileMid(ops, un.op, fn)
			}
			if fn == nil {
				return nil
			}
			n++
		}
		ci--
		t3.chunks[ci] = t3chunk{fn: fn, cost: int64(ops[first].cost), insns: uint64(ops[first].insns)}
	}

	e.Stats.Tier3Superblocks++
	return t3
}

// pageFault exits the compiled trace on a page fault at site s: refund the
// unexecuted tail of the segment and stop with PC at the faulting
// instruction, exactly like Engine.fault.
func (c *t3ctx) pageFault(s faultSite, fl *mem.Fault) int32 {
	*c.spent -= int64(s.refundCost)
	c.executed -= uint64(s.refundInsns)
	c.cpu.PC = s.pc
	c.e.Stats.Faults++
	*c.spent += c.e.Cost.FaultNs
	c.res = Result{Reason: StopPageFault, Fault: *fl}
	c.stop = true
	return t3Stop
}

// alignFault exits the compiled trace on a misaligned atomic, like badAlign.
func (c *t3ctx) alignFault(s faultSite, addr uint64) int32 {
	*c.spent -= int64(s.refundCost)
	c.executed -= uint64(s.refundInsns)
	c.cpu.PC = s.pc
	c.res = Result{Reason: StopError,
		Err: fmt.Errorf("tcg: misaligned atomic %#x at %#x", addr, s.pc)}
	c.stop = true
	return t3Stop
}

// chainTo transfers control to the resolved exit block h. When h heads a
// compiled trace, execution switches straight to it in the same
// context — no Exec round trip, no context re-init; the trampoline
// re-checks the budget on the way. Otherwise the trace exits to Exec with
// c.next = h.
func (c *t3ctx) chainTo(h *block) int32 {
	if h != nil {
		if nsb := h.sb; nsb != nil {
			c.sw = nsb.t3
			return t3Switch
		}
	}
	c.next = h
	return t3Exit
}

// t3unit is one entry of a segment's fusion plan: the uop at op, plus an
// optional pre/post addi folded into a memory op, or a paired second addi.
// Unused slots are -1.
type t3unit struct{ op, pre, post, pair int }

// memFusable reports whether k is a plain memory access that accepts
// pre/post addi fusion (atomics and sanitizer probes are excluded — their
// side-effect ordering is handled by the tail compiler).
func memFusable(k uopKind) bool {
	switch k {
	case uLoad, uStore, uFLoad, uFStore:
		return true
	}
	return false
}

// addiFuse is a neighbouring address-bump addi folded into a memory-op
// closure. The pre addi executes before the access (its result may feed
// the address); the post addi executes only after the access succeeds.
// That preserves fault-restart semantics: a faulting access leaves the pre
// addi retired and the post addi unexecuted — the architectural order.
type addiFuse struct {
	on  bool
	rd  uint8
	rs  uint8
	imm uint64
}

// fuseAddi pre-decodes the addi at ops[i]; a unit's unused slot (-1) is the
// fusion that is off.
func fuseAddi(ops []uop, i int) addiFuse {
	if i < 0 {
		return addiFuse{}
	}
	u := &ops[i]
	return addiFuse{on: true, rd: u.rd, rs: u.rs1, imm: uint64(u.imm)}
}

// sitePageSize is the page size the per-site TLB lines assume. Holding the
// page bytes as a fixed-size array pointer lets the compiler prove every
// site-hit access in bounds from the `off+size <= sitePageSize` guard and
// drop the bounds checks; spaces with a non-default page size simply never
// fill site lines and stay on the engine-TLB/softmmu path.
const sitePageSize = mem.DefaultPageSize

// siteTLB is a memory access's private TLB line: the page its static
// load/store site touched last, held inside the access's memAcc; validity
// matches the engine TLB (page number plus fill epoch). The hit path is a
// compare against these fields — no index into the engine's shared TLB
// array, and no cross-site eviction.
type siteTLB struct {
	page  uint64
	epoch uint64
	data  *[sitePageSize]byte
}

// fillRd refills the site line for pn from the engine read TLB after a
// site miss (slowLoad installs qualifying pages there). Returns whether
// the site line is now valid for pn.
func (st *siteTLB) fillRd(en *Engine, mmu *mem.Space, pn uint64) bool {
	if ln := &en.rdTLB[pn&(accelTLBSize-1)]; ln.PageNo == pn && ln.Epoch == mmu.Epoch() &&
		len(ln.Data) == sitePageSize {
		st.page, st.epoch, st.data = ln.PageNo, ln.Epoch, (*[sitePageSize]byte)(ln.Data)
		return true
	}
	return false
}

// fillWr is fillRd for the write TLB.
func (st *siteTLB) fillWr(en *Engine, mmu *mem.Space, pn uint64) bool {
	if ln := &en.wrTLB[pn&(accelTLBSize-1)]; ln.PageNo == pn && ln.Epoch == mmu.Epoch() &&
		len(ln.Data) == sitePageSize {
		st.page, st.epoch, st.data = ln.PageNo, ln.Epoch, (*[sitePageSize]byte)(ln.Data)
		return true
	}
	return false
}

// loadMiss8 is the outlined slow half of an 8-byte load site: revalidate
// through the engine TLB, then the softmmu, refilling the site line on
// the way out. The int32 is t3Cont on success or a fault disposition.
func (c *t3ctx) loadMiss8(ac *memAcc, addr, pn, off uint64) (uint64, int32) {
	en := c.e
	mmu := en.Mem
	st := &ac.st
	if st.fillRd(en, mmu, pn) && off+8 <= sitePageSize {
		return binary.LittleEndian.Uint64(st.data[off : off+8]), t3Cont
	}
	v, fault := en.slowLoad(addr, 8)
	if fault != nil {
		return 0, c.pageFault(ac.site, fault)
	}
	st.fillRd(en, mmu, pn)
	return v, t3Cont
}

// storeMiss8 is the outlined slow half of an 8-byte store site.
func (c *t3ctx) storeMiss8(ac *memAcc, addr, pn, off, val uint64) int32 {
	en := c.e
	mmu := en.Mem
	st := &ac.st
	if st.fillWr(en, mmu, pn) && off+8 <= sitePageSize {
		binary.LittleEndian.PutUint64(st.data[off:off+8], val)
		return t3Cont
	}
	if fault := en.slowStore(addr, val, 8); fault != nil {
		return c.pageFault(ac.site, fault)
	}
	st.fillWr(en, mmu, pn)
	return t3Cont
}

// pair8able reports whether unit u is a plain 8-byte load or store —
// integer (with rd live for loads) or double-precision FP: the accesses
// compileMemRun's body serves, alone or fused with adjacent ones.
func pair8able(ops []uop, u t3unit) bool {
	if u.pair >= 0 {
		return false
	}
	op := &ops[u.op]
	switch op.kind {
	case uLoad:
		return op.size == 8 && op.rd != 0
	case uStore:
		return op.size == 8
	case uFLoad, uFStore:
		return true
	}
	return false
}

// t3MemRun caps the width of a fused memory-run closure.
const t3MemRun = 6

// memAcc is one access of a memory run, fully pre-decoded at compile
// time: its private site TLB line, operand registers, addi fusions (the
// fields of two addiFuse, spread so that everything the run body reads fills
// the first 64 bytes), kind (integer/FP load/store, all 8-byte), and last
// the fault site, which only a miss that faults reads.
type memAcc struct {
	st                      siteTLB
	imm, preImm, postImm    uint64
	rd, rs1, rs2            uint8
	preRd, preRs            uint8
	postRd, postRs          uint8
	load, fp, preOn, postOn bool
	site                    faultSite
}

// compileMemRun compiles a run of 1..t3MemRun 8-byte accesses — integer or
// double-precision FP, each with its own pre/post addi and its own site TLB
// line — into one closure, amortizing the per-closure call overhead across
// the whole run. It is the only body an 8-byte access has: a lone ld or fsd
// is a run of one. Program order is preserved exactly: a fault on access k
// leaves accesses 0..k-1 and their addi fusions retired, with PC at access
// k's instruction (pageFault refunds from ac.site).
//
// The six copies below are one access written out t3MemRun times, on purpose.
// Memory closures are 49 % of hot_compute's closure calls, and the same body
// as a `for k := 0; k < nacc; k++` loop was slower there in every one of four
// alternating runs (host_s 0.570/0.621, 0.593/0.618, 0.571/0.661, 0.616/0.653
// s; EXPERIMENTS.md, "Tried and removed"): constant indices let the compiler
// drop the bounds checks and keep each access's fields in registers. Change
// one copy and change them all.
func (e *Engine) compileMemRun(ops []uop, us []t3unit, sites *siteWalk, next t3op) t3op {
	// The closure indexes accs with constants, so it wants the full-width
	// array type, but reads only the len(us) slots this run fills: cut that
	// many from the engine's slab and let the view's unused tail lie over the
	// slots of the runs compiled next.
	accs := (*[t3MemRun]memAcc)(e.accs.cut(len(us), t3MemRun, 16*t3MemRun))
	for k := len(us) - 1; k >= 0; k-- { // last first: sites are asked for falling indices
		un := us[k]
		u := &ops[un.op]
		pre, post := fuseAddi(ops, un.pre), fuseAddi(ops, un.post)
		accs[k] = memAcc{st: siteTLB{page: ^uint64(0)},
			imm: uint64(u.imm), preImm: pre.imm, postImm: post.imm,
			rd: u.rd, rs1: u.rs1, rs2: u.rs2,
			preRd: pre.rd, preRs: pre.rs, postRd: post.rd, postRs: post.rs,
			load: u.kind == uLoad || u.kind == uFLoad, fp: u.kind == uFLoad || u.kind == uFStore,
			preOn: pre.on, postOn: post.on, site: e.site(sites, un.op)}
	}
	nacc := len(us)
	shift, mask := e.pageShift, e.pageMask
	mmu := e.Mem
	return func(c *t3ctx) int32 {
		x := c.x
		{
			ac := &accs[0]
			if ac.preOn {
				x[ac.preRd] = x[ac.preRs] + ac.preImm
			}
			addr := x[ac.rs1] + ac.imm
			pn := addr >> shift
			off := addr & mask
			st := &ac.st
			if ac.load {
				var v uint64
				if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
					v = binary.LittleEndian.Uint64(st.data[off : off+8])
				} else {
					var d int32
					if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
						return d
					}
				}
				if ac.fp {
					c.f[ac.rd] = math.Float64frombits(v)
				} else {
					x[ac.rd] = v
				}
			} else {
				val := x[ac.rs2]
				if ac.fp {
					val = math.Float64bits(c.f[ac.rs2])
				}
				if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
					binary.LittleEndian.PutUint64(st.data[off:off+8], val)
				} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
					return d
				}
				if !c.monEmpty {
					c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
				}
			}
			if ac.postOn {
				x[ac.postRd] = x[ac.postRs] + ac.postImm
			}
		}
		if nacc > 1 {
			{
				ac := &accs[1]
				if ac.preOn {
					x[ac.preRd] = x[ac.preRs] + ac.preImm
				}
				addr := x[ac.rs1] + ac.imm
				pn := addr >> shift
				off := addr & mask
				st := &ac.st
				if ac.load {
					var v uint64
					if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
						v = binary.LittleEndian.Uint64(st.data[off : off+8])
					} else {
						var d int32
						if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
							return d
						}
					}
					if ac.fp {
						c.f[ac.rd] = math.Float64frombits(v)
					} else {
						x[ac.rd] = v
					}
				} else {
					val := x[ac.rs2]
					if ac.fp {
						val = math.Float64bits(c.f[ac.rs2])
					}
					if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
						binary.LittleEndian.PutUint64(st.data[off:off+8], val)
					} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
						return d
					}
					if !c.monEmpty {
						c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
					}
				}
				if ac.postOn {
					x[ac.postRd] = x[ac.postRs] + ac.postImm
				}
			}
			if nacc > 2 {
				{
					ac := &accs[2]
					if ac.preOn {
						x[ac.preRd] = x[ac.preRs] + ac.preImm
					}
					addr := x[ac.rs1] + ac.imm
					pn := addr >> shift
					off := addr & mask
					st := &ac.st
					if ac.load {
						var v uint64
						if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
							v = binary.LittleEndian.Uint64(st.data[off : off+8])
						} else {
							var d int32
							if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
								return d
							}
						}
						if ac.fp {
							c.f[ac.rd] = math.Float64frombits(v)
						} else {
							x[ac.rd] = v
						}
					} else {
						val := x[ac.rs2]
						if ac.fp {
							val = math.Float64bits(c.f[ac.rs2])
						}
						if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
							binary.LittleEndian.PutUint64(st.data[off:off+8], val)
						} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
							return d
						}
						if !c.monEmpty {
							c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
						}
					}
					if ac.postOn {
						x[ac.postRd] = x[ac.postRs] + ac.postImm
					}
				}
				if nacc > 3 {
					{
						ac := &accs[3]
						if ac.preOn {
							x[ac.preRd] = x[ac.preRs] + ac.preImm
						}
						addr := x[ac.rs1] + ac.imm
						pn := addr >> shift
						off := addr & mask
						st := &ac.st
						if ac.load {
							var v uint64
							if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
								v = binary.LittleEndian.Uint64(st.data[off : off+8])
							} else {
								var d int32
								if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
									return d
								}
							}
							if ac.fp {
								c.f[ac.rd] = math.Float64frombits(v)
							} else {
								x[ac.rd] = v
							}
						} else {
							val := x[ac.rs2]
							if ac.fp {
								val = math.Float64bits(c.f[ac.rs2])
							}
							if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
								binary.LittleEndian.PutUint64(st.data[off:off+8], val)
							} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
								return d
							}
							if !c.monEmpty {
								c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
							}
						}
						if ac.postOn {
							x[ac.postRd] = x[ac.postRs] + ac.postImm
						}
					}
					if nacc > 4 {
						{
							ac := &accs[4]
							if ac.preOn {
								x[ac.preRd] = x[ac.preRs] + ac.preImm
							}
							addr := x[ac.rs1] + ac.imm
							pn := addr >> shift
							off := addr & mask
							st := &ac.st
							if ac.load {
								var v uint64
								if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
									v = binary.LittleEndian.Uint64(st.data[off : off+8])
								} else {
									var d int32
									if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
										return d
									}
								}
								if ac.fp {
									c.f[ac.rd] = math.Float64frombits(v)
								} else {
									x[ac.rd] = v
								}
							} else {
								val := x[ac.rs2]
								if ac.fp {
									val = math.Float64bits(c.f[ac.rs2])
								}
								if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
									binary.LittleEndian.PutUint64(st.data[off:off+8], val)
								} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
									return d
								}
								if !c.monEmpty {
									c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
								}
							}
							if ac.postOn {
								x[ac.postRd] = x[ac.postRs] + ac.postImm
							}
						}
						if nacc > 5 {
							{
								ac := &accs[5]
								if ac.preOn {
									x[ac.preRd] = x[ac.preRs] + ac.preImm
								}
								addr := x[ac.rs1] + ac.imm
								pn := addr >> shift
								off := addr & mask
								st := &ac.st
								if ac.load {
									var v uint64
									if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
										v = binary.LittleEndian.Uint64(st.data[off : off+8])
									} else {
										var d int32
										if v, d = c.loadMiss8(ac, addr, pn, off); d != t3Cont {
											return d
										}
									}
									if ac.fp {
										c.f[ac.rd] = math.Float64frombits(v)
									} else {
										x[ac.rd] = v
									}
								} else {
									val := x[ac.rs2]
									if ac.fp {
										val = math.Float64bits(c.f[ac.rs2])
									}
									if pn == st.page && st.epoch == mmu.Epoch() && off+8 <= sitePageSize {
										binary.LittleEndian.PutUint64(st.data[off:off+8], val)
									} else if d := c.storeMiss8(ac, addr, pn, off, val); d != t3Cont {
										return d
									}
									if !c.monEmpty {
										c.e.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
									}
								}
								if ac.postOn {
									x[ac.postRd] = x[ac.postRs] + ac.postImm
								}
							}
						}
					}
				}
			}
		}
		return next(c)
	}
}

// compileAddiPair fuses unit un's two adjacent addis into one closure.
func compileAddiPair(ops []uop, un t3unit, next t3op) t3op {
	u1, u2 := &ops[un.op], &ops[un.pair]
	rd1, rs1, i1 := u1.rd, u1.rs1, uint64(u1.imm)
	rd2, rs2, i2 := u2.rd, u2.rs1, uint64(u2.imm)
	return func(c *t3ctx) int32 {
		x := c.x
		x[rd1] = x[rs1] + i1
		x[rd2] = x[rs2] + i2
		return next(c)
	}
}

// addiMidable reports whether the planner folds a preceding addi into u: the
// predicate the planner, the checker and compileTier3 share.
// Only mul earns it — 0.8 % and 5.5 % of closure calls on hot_compute and
// shared_cluster; of the other twenty ops this once covered, fourteen were
// never compiled on any benchmark workload and six (li and or sub xor add)
// were at most 0.02 % of calls each (EXPERIMENTS.md, "Tried and removed").
func addiMidable(u *uop) bool { return u.kind == uPure && u.op == isa.OpMUL }

// compileAddiMul fuses an addi into the mul that follows it: the addi retires
// first (program order), then the product — an induction bump and the index
// scaling it feeds, in one call.
func compileAddiMul(ops []uop, un t3unit, next t3op) t3op {
	a, b := &ops[un.pre], &ops[un.op]
	ard, ars, ai := a.rd, a.rs1, uint64(a.imm)
	rd, rs1, rs2 := b.rd, b.rs1, b.rs2
	return func(c *t3ctx) int32 { x := c.x; x[ard] = x[ars] + ai; x[rd] = x[rs1] * x[rs2]; return next(c) }
}

// compileMid compiles one straight-line (non-boundary, non-memory) uop: a
// probe, a fence, a link or a hint by its kind, a pure uop by its op. All
// closures capture their operands at compile time and allocate nothing at
// execution time. The arms are written out, one closure per op, and stay
// so: Go does not specialise a closure on a captured function value, so a
// shared per-op semantics table would put a second indirect call inside the
// 34-44 % of all closure calls that land here, and generating the arms would
// move this code, not remove it.
func (e *Engine) compileMid(ops []uop, i int, next t3op) t3op {
	u := &ops[i]
	rd, rs1, rs2 := u.rd, u.rs1, u.rs2
	imm := u.imm
	switch u.kind {
	case uNop:
		return next
	case uSanRead:
		size := int(u.size)
		pc := u.pc
		return func(c *t3ctx) int32 {
			if s := c.e.San; s != nil {
				addr := c.x[rs1] + uint64(imm)
				s.OnLoad(c.cpu.TID, c.e.Mem.Translate(addr), size, pc)
			}
			return next(c)
		}
	case uSanWrite:
		size := int(u.size)
		pc := u.pc
		return func(c *t3ctx) int32 {
			if s := c.e.San; s != nil {
				addr := c.x[rs1] + uint64(imm)
				s.OnStore(c.cpu.TID, c.e.Mem.Translate(addr), size, pc)
			}
			return next(c)
		}
	case uFence:
		return func(c *t3ctx) int32 {
			if s := c.e.San; s != nil {
				s.OnFence(c.cpu.TID)
			}
			return next(c)
		}
	case uLink:
		v := u.val
		if rd == 0 {
			return next
		}
		return func(c *t3ctx) int32 { c.x[rd] = v; return next(c) }
	case uHint:
		return func(c *t3ctx) int32 { c.cpu.HintGroup = imm; return next(c) }
	case uPure: // by op, below
	default:
		return nil
	}

	switch u.op {
	case isa.OpADD:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] + x[rs2]; return next(c) }
	case isa.OpSUB:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] - x[rs2]; return next(c) }
	case isa.OpMUL:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] * x[rs2]; return next(c) }
	case isa.OpDIV:
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = uint64(sdiv(int64(x[rs1]), int64(x[rs2])))
			return next(c)
		}
	case isa.OpDIVU:
		return func(c *t3ctx) int32 {
			x := c.x
			if x[rs2] == 0 {
				x[rd] = ^uint64(0)
			} else {
				x[rd] = x[rs1] / x[rs2]
			}
			return next(c)
		}
	case isa.OpREM:
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = uint64(srem(int64(x[rs1]), int64(x[rs2])))
			return next(c)
		}
	case isa.OpREMU:
		return func(c *t3ctx) int32 {
			x := c.x
			if x[rs2] == 0 {
				x[rd] = x[rs1]
			} else {
				x[rd] = x[rs1] % x[rs2]
			}
			return next(c)
		}
	case isa.OpAND:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] & x[rs2]; return next(c) }
	case isa.OpOR:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] | x[rs2]; return next(c) }
	case isa.OpXOR:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] ^ x[rs2]; return next(c) }
	case isa.OpSLL:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] << (x[rs2] & 63); return next(c) }
	case isa.OpSRL:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] >> (x[rs2] & 63); return next(c) }
	case isa.OpSRA:
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = uint64(int64(x[rs1]) >> (x[rs2] & 63))
			return next(c)
		}
	case isa.OpSLT:
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = b2u(int64(x[rs1]) < int64(x[rs2]))
			return next(c)
		}
	case isa.OpSLTU:
		return func(c *t3ctx) int32 { x := c.x; x[rd] = b2u(x[rs1] < x[rs2]); return next(c) }

	case isa.OpADDI:
		ui := uint64(imm)
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] + ui; return next(c) }
	case isa.OpANDI:
		ui := uint64(imm)
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] & ui; return next(c) }
	case isa.OpORI:
		ui := uint64(imm)
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] | ui; return next(c) }
	case isa.OpXORI:
		ui := uint64(imm)
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] ^ ui; return next(c) }
	case isa.OpSLLI:
		sh := uint64(imm) & 63
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] << sh; return next(c) }
	case isa.OpSRLI:
		sh := uint64(imm) & 63
		return func(c *t3ctx) int32 { x := c.x; x[rd] = x[rs1] >> sh; return next(c) }
	case isa.OpSRAI:
		sh := uint64(imm) & 63
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = uint64(int64(x[rs1]) >> sh)
			return next(c)
		}
	case isa.OpSLTI:
		return func(c *t3ctx) int32 {
			x := c.x
			x[rd] = b2u(int64(x[rs1]) < imm)
			return next(c)
		}
	case isa.OpMOVIW, isa.OpMOVID:
		v := u.val
		return func(c *t3ctx) int32 { c.x[rd] = v; return next(c) }

	case isa.OpFADD:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = f[rs1] + f[rs2]; return next(c) }
	case isa.OpFSUB:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = f[rs1] - f[rs2]; return next(c) }
	case isa.OpFMUL:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = f[rs1] * f[rs2]; return next(c) }
	case isa.OpFDIV:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = f[rs1] / f[rs2]; return next(c) }
	case isa.OpFMIN:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Min(f[rs1], f[rs2]); return next(c) }
	case isa.OpFMAX:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Max(f[rs1], f[rs2]); return next(c) }
	case isa.OpFSQRT:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Sqrt(f[rs1]); return next(c) }
	case isa.OpFNEG:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = -f[rs1]; return next(c) }
	case isa.OpFABS:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Abs(f[rs1]); return next(c) }
	case isa.OpFEXP:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Exp(f[rs1]); return next(c) }
	case isa.OpFLN:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = math.Log(f[rs1]); return next(c) }
	case isa.OpFMOVD:
		v := math.Float64frombits(u.val)
		return func(c *t3ctx) int32 { c.f[rd] = v; return next(c) }
	case isa.OpFMV:
		return func(c *t3ctx) int32 { f := c.f; f[rd] = f[rs1]; return next(c) }
	case isa.OpFMVXD:
		return func(c *t3ctx) int32 { c.x[rd] = math.Float64bits(c.f[rs1]); return next(c) }
	case isa.OpFMVDX:
		return func(c *t3ctx) int32 { c.f[rd] = math.Float64frombits(c.x[rs1]); return next(c) }
	case isa.OpFCVTDL:
		return func(c *t3ctx) int32 { c.f[rd] = float64(int64(c.x[rs1])); return next(c) }
	case isa.OpFCVTLD:
		return func(c *t3ctx) int32 { c.x[rd] = uint64(int64(c.f[rs1])); return next(c) }
	case isa.OpFEQ:
		return func(c *t3ctx) int32 { c.x[rd] = b2u(c.f[rs1] == c.f[rs2]); return next(c) }
	case isa.OpFLT:
		return func(c *t3ctx) int32 { c.x[rd] = b2u(c.f[rs1] < c.f[rs2]); return next(c) }
	case isa.OpFLE:
		return func(c *t3ctx) int32 { c.x[rd] = b2u(c.f[rs1] <= c.f[rs2]); return next(c) }
	}
	return nil
}

// compileLoad compiles a load that is not a run member: narrower than 8
// bytes, or into x0. One closure for all of them, through the engine's
// shared read TLB; no benchmark workload compiles a 2- or 4-byte access at
// all (minicc emits ld sd lbu sb fld fsd), so a site line per width earned
// nothing.
func (e *Engine) compileLoad(ops []uop, un t3unit, sites *siteWalk, next t3op) t3op {
	u := &ops[un.op]
	pre, post := fuseAddi(ops, un.pre), fuseAddi(ops, un.post)
	rd, rs1, imm := u.rd, u.rs1, uint64(u.imm)
	size, sh := u.size, u.sh
	site := e.site(sites, un.op)
	return func(c *t3ctx) int32 {
		if pre.on {
			x := c.x
			x[pre.rd] = x[pre.rs] + pre.imm
		}
		en := c.e
		addr := c.x[rs1] + imm
		var v uint64
		if p := en.rdHit(addr, size); p != nil {
			v = loadLE(p, size)
		} else {
			var fault *mem.Fault
			if v, fault = en.slowLoad(addr, size); fault != nil {
				return c.pageFault(site, fault)
			}
		}
		if sh != 0 {
			v = uint64(int64(v<<sh) >> sh)
		}
		wr(c.x, rd, v)
		if post.on {
			x := c.x
			x[post.rd] = x[post.rs] + post.imm
		}
		return next(c)
	}
}

// compileStore is compileLoad's counterpart for stores narrower than 8
// bytes, with the hoisted LL/SC-monitor emptiness check.
func (e *Engine) compileStore(ops []uop, un t3unit, sites *siteWalk, next t3op) t3op {
	u := &ops[un.op]
	pre, post := fuseAddi(ops, un.pre), fuseAddi(ops, un.post)
	rs1, rs2, imm := u.rs1, u.rs2, uint64(u.imm)
	size := u.size
	site := e.site(sites, un.op)
	mmu := e.Mem
	return func(c *t3ctx) int32 {
		if pre.on {
			x := c.x
			x[pre.rd] = x[pre.rs] + pre.imm
		}
		en := c.e
		addr := c.x[rs1] + imm
		if p := en.wrHit(addr, size); p != nil {
			storeLE(p, c.x[rs2], size)
		} else if fault := en.slowStore(addr, c.x[rs2], size); fault != nil {
			return c.pageFault(site, fault)
		}
		if !c.monEmpty {
			en.Mon.OnStore(c.cpu.TID, mmu.Translate(addr))
		}
		if post.on {
			x := c.x
			x[post.rd] = x[post.rs] + post.imm
		}
		return next(c)
	}
}

// compileTail compiles a segment-boundary uop. Fall-through outcomes
// (guard passes, successful atomics) chain into next; everything else
// returns a trampoline disposition.
func (e *Engine) compileTail(sb *superblock, ops []uop, i int, sites *siteWalk, next t3op) t3op {
	u := &ops[i]
	rd, rs1, rs2 := u.rd, u.rs1, u.rs2
	pc, npc, exit := u.pc, u.npc, u.exit
	switch u.kind {
	case uGuard:
		// The trace stays on the closure chain while the branch goes the
		// expected way. One closure over takeBranch for every branch op:
		// in-trace guards were at most 1.6 % of closure calls on the
		// benchmark workloads, all of them beq (EXPERIMENTS.md, "Tried and
		// removed"), and the branches that end a trace are among the exits
		// that make up at most 4.3 % (DESIGN.md), so a closure per branch
		// op earns nothing.
		bop, expect := u.op, u.expectTaken
		return func(c *t3ctx) int32 {
			if takeBranch(bop, c.x[rs1], c.x[rs2]) != expect {
				c.cpu.PC = npc
				return c.chainTo(c.e.exitVia(sb, exit))
			}
			return next(c)
		}

	case uFusedCmpGuard:
		// rd = slt(rs1, rs2); exit when rd lands on the off-trace value.
		takenAt0 := u.op == isa.OpBEQ // beqz taken when cmp == 0
		exitVal := uint64(0)
		if takenAt0 == u.expectTaken {
			exitVal = 1
		}
		if u.cmpU {
			return func(c *t3ctx) int32 {
				v := b2u(c.x[rs1] < c.x[rs2])
				c.x[rd] = v
				if v == exitVal {
					c.cpu.PC = npc
					return c.chainTo(c.e.exitVia(sb, exit))
				}
				return next(c)
			}
		}
		return func(c *t3ctx) int32 {
			v := b2u(int64(c.x[rs1]) < int64(c.x[rs2]))
			c.x[rd] = v
			if v == exitVal {
				c.cpu.PC = npc
				return c.chainTo(c.e.exitVia(sb, exit))
			}
			return next(c)
		}

	case uJalrExit:
		imm := uint64(u.imm)
		link := u.val
		return func(c *t3ctx) int32 {
			en := c.e
			target := (c.x[rs1] + imm) &^ 3
			if rd != 0 {
				c.x[rd] = link
			}
			c.cpu.PC = target
			if !en.NoCache {
				if h := &en.jc[(target>>2)&(jcSize-1)]; h.pc == target && h.blk != nil {
					en.Stats.JumpCacheHits++
					if nsb := h.blk.sb; nsb != nil && *c.spent < c.budget {
						// Tail-entry: the target heads a compiled trace too.
						c.sw = nsb.t3
						return t3Switch
					}
					c.next = h.blk
					return t3Exit
				}
			}
			c.next = nil
			return t3Exit
		}

	case uLoopBack:
		return func(c *t3ctx) int32 { return t3Loop }

	case uExit:
		return func(c *t3ctx) int32 {
			c.cpu.PC = npc
			return c.chainTo(c.e.exitVia(sb, exit))
		}

	case uAtomic:
		op := u.op
		site := e.site(sites, i)
		return func(c *t3ctx) int32 {
			switch end, fl := c.e.atomic(c.cpu, op, rd, rs1, rs2, pc); end {
			case atomicFault:
				return c.pageFault(site, &fl)
			case atomicMisaligned:
				return c.alignFault(site, c.x[rs1])
			case atomicYield:
				c.cpu.PC = pc + 4
				c.res = Result{Reason: StopBudget}
				c.stop = true
				return t3Stop
			}
			// Inside a trace only this thread's own LL opens a reservation.
			c.monEmpty = c.e.Mon.Empty()
			return next(c)
		}

	case uSvcExit:
		return func(c *t3ctx) int32 {
			e := c.e
			e.Stats.Syscalls++
			*c.spent += e.Cost.SyscallNs
			c.cpu.PC = pc + 4
			c.res = Result{Reason: StopSyscall}
			c.stop = true
			return t3Stop
		}

	case uHaltExit:
		return func(c *t3ctx) int32 {
			c.cpu.PC = pc + 4
			c.res = Result{Reason: StopHalt}
			c.stop = true
			return t3Stop
		}
	case uEbreakExit:
		return func(c *t3ctx) int32 {
			c.cpu.PC = pc
			c.res = Result{Reason: StopEBreak}
			c.stop = true
			return t3Stop
		}
	}
	return nil
}
