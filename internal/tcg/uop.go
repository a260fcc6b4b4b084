// Micro-op lowering: the compile-time IR of a compiled trace (see trace.go).
// A trace's guest instructions are pre-decoded into a flat uop array. A uop
// does not re-declare the ISA: its kind is its role (pure, memory access,
// sanitizer probe, guard or exit, atomic, system) and its op is the guest op
// it came from, so what a pure uop computes is read from the op, as the block
// interpreter reads it. Loads and stores carry a pre-resolved width and
// sign-extension shift, long-immediate moves carry the materialized constant,
// compare+guard pairs and ADDI chains are fused, and virtual-time costs are
// aggregated per straight-line segment so the compiled trace charges the cost
// model once per segment instead of once per instruction.
//
// Nothing executes uops, and nothing keeps them. The array is translator
// scratch: what -verify proves (symEquivSeq against the reference lowering,
// checkTier3 against the closures) and what compileTier3 reads once to build
// the closures that do run (tier3.go). Every uop holds the guest PC of the
// instruction it came from and its own cost; a closure that can stop its
// trace mid-segment captures both, for the uops after it, as its faultSite,
// so a fault or misaligned atomic leaves the trace with architecturally exact
// state and internal/core's restart-at-faulting-instruction contract holds
// unchanged.
package tcg

import (
	"encoding/binary"
	"strconv"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

type uopKind uint8

// A uop's kind is its structural role in the trace: what the segmenter, the
// planner, the closure compiler and the verifier must know about it beyond
// the guest op it lowers. Which operation it is comes from uop.op, so a
// straight-line GA64 op needs no kind of its own.
const (
	uNop uopKind = iota

	// uPure is every op whose only effect is its destination register — the
	// integer and FP ALU ops and the long-immediate moves (MOVIW, MOVID and
	// FMOVD carry their literal in val). It cannot fault or leave the trace.
	uPure

	// Memory, with pre-resolved width (size) and sign shift (sh).
	uLoad
	uStore
	uFLoad
	uFStore

	// DQSan instrumentation, emitted immediately before the memory uop they
	// shadow (the address registers are still live there — the load itself
	// may clobber its own base). Zero cost, zero retired instructions: the
	// *virtual* machine is unaffected by sanitizing, only host time is.
	uSanRead
	uSanWrite

	// Control flow. A trace leaves at a static target only through a guard
	// or a uExit: a guard evaluates its branch and side-exits when the
	// outcome differs from the direction the trace followed, and a uExit
	// ends the trace unconditionally. A branch that ends the trace is a
	// guard expecting not-taken plus a uExit to the fall-through; a JAL that
	// ends it is its link plus a uExit to the target.
	uGuard
	uFusedCmpGuard // slt/sltu fused with a beqz/bnez guard
	uLink          // a JAL's link write
	uJalrExit      // indirect branch: target resolved via the jump cache
	uLoopBack      // back-edge to uop 0 (trace loops onto its own head)
	uExit          // trace end at a static target

	// Atomics (LL, SC, CAS, AMOADD, AMOSWAP; which one is op) end a cost
	// segment because they can fault or, contended, end the quantum
	// mid-trace.
	uAtomic
	uFence

	// System. A hint only records its group, so it is a straight-line uop.
	uSvcExit
	uHint
	uHaltExit
	uEbreakExit
)

// kindNames maps uop kinds to the short names diagnostics print.
var kindNames = [...]string{
	uNop: "nop", uPure: "pure",
	uLoad: "load", uStore: "store", uFLoad: "fload", uFStore: "fstore",
	uSanRead: "sanread", uSanWrite: "sanwrite",
	uGuard: "guard", uFusedCmpGuard: "cmpguard",
	uLink: "link", uJalrExit: "jalrexit",
	uLoopBack: "loopback", uExit: "exit",
	uAtomic: "atomic", uFence: "fence",
	uSvcExit: "svc", uHint: "hint", uHaltExit: "halt", uEbreakExit: "ebreak",
}

func kindName(k uopKind) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "u" + strconv.Itoa(int(k))
}

// uopName is the name a diagnostic gives u: a pure or atomic uop by its op,
// any other by its kind.
func uopName(u *uop) string {
	if u.kind == uPure || u.kind == uAtomic {
		return u.op.String()
	}
	return kindName(u.kind)
}

// uop is one pre-decoded micro-operation of a superblock.
type uop struct {
	imm int64
	val uint64 // materialized constant / link value / FP literal bits
	pc  uint64 // guest PC of the originating instruction
	npc uint64 // guard: off-trace target; uExit: the exit's target

	cost     int32  // aggregate virtual cost of the segment starting here
	selfCost int32  // this uop's own virtual cost (segment accounting)
	insns    uint16 // segment guest-insn count; nonzero marks a segment start
	exit     int16  // guard and uExit: exit-slot index for npc

	kind        uopKind
	rd          uint8
	rs1         uint8
	rs2         uint8
	size        uint8  // load/store width in bytes
	sh          uint8  // load sign-extension shift (64 - 8*size); 0 = none
	op          isa.Op // the guest op: which a pure uop computes, which branch a guard tests, which atomic an atomic is
	selfInsns   uint8  // guest instructions this uop retires (2+ when fused)
	cmpU        bool   // fused compare is unsigned (sltu)
	expectTaken bool   // guard: branch direction the trace follows
}

// isAddi reports whether u is a live ADDI: the uop the fold, the planner's
// address-bump fusions and the checker look for.
func isAddi(u *uop) bool { return u.kind == uPure && u.op == isa.OpADDI }

// lowerInsn appends the uop(s) for one guest instruction to ops. Pure
// straight-line instructions only. Everything it needs about the op comes
// from the ISA: the memory width from loadSize/storeSize, the sign shift from
// the op, and the x0-destination rule from the operand shape in isa.opInfo.
// What is left is here: the ADDI folds, the literals, the sanitizer probes.
func (e *Engine) lowerInsn(ops []uop, ins *isa.Instruction, pc uint64) []uop {
	op := ins.Op
	u := uop{kind: uPure, op: op,
		pc: pc, selfInsns: 1, selfCost: int32(e.opCost[op]),
		rd: ins.Rd, rs1: ins.Rs1, rs2: ins.Rs2, imm: ins.Imm}
	switch op {
	case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU, isa.OpLD, isa.OpFLD:
		u.kind, u.size = uLoad, loadSize(op)
		switch op {
		case isa.OpLB, isa.OpLH, isa.OpLW:
			u.sh = 64 - 8*u.size
		case isa.OpFLD:
			u.kind = uFLoad
		}
		ops = e.lowerSan(ops, ins, pc, uSanRead, u.size)
	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD, isa.OpFSD:
		u.kind, u.size = uStore, storeSize(op)
		if op == isa.OpFSD {
			u.kind = uFStore
		}
		ops = e.lowerSan(ops, ins, pc, uSanWrite, u.size)
	case isa.OpLL, isa.OpSC, isa.OpCAS, isa.OpAMOADD, isa.OpAMOSWAP:
		u.kind = uAtomic
	case isa.OpFENCE:
		u.kind = uFence
	case isa.OpHINT:
		u.kind = uHint
	case isa.OpNOP:
		u.kind = uNop
	default:
		switch {
		case !op.Valid() || ins.IsBranch():
			// A terminator never reaches lowerInsn, so this is not an
			// instruction at all and ends the trace at runtime.
			u.kind = uEbreakExit
		case ins.Rd == 0 && op.Shape()[0] == 'd':
			// An integer result into x0 has no architectural effect; keep the
			// cost charge but drop the work.
			u.kind = uNop
		case op == isa.OpADDI && len(ops) > 0:
			// Fold ADDI chains on the same register into one uop, and drop a
			// move bounced straight back (addi rd,rs,0 ; addi rs,rd,0: rs
			// holds the value already; a live ADDI's rd is never x0). The
			// intermediate value is never observable: ADDI cannot fault, so
			// any exit between the two additions is impossible.
			p := &ops[len(ops)-1]
			chain := ins.Rs1 == ins.Rd && p.rd == ins.Rd
			bounce := ins.Imm == 0 && p.imm == 0 && ins.Rs1 == p.rd && ins.Rd == p.rs1
			if isAddi(p) && (chain || bounce) && p.selfInsns < 255 {
				p.imm += ins.Imm
				p.selfCost += u.selfCost
				p.selfInsns++
				e.Stats.FusedUops++
				return ops
			}
		case op == isa.OpMOVIW || op == isa.OpMOVID || op == isa.OpFMOVD:
			u.val = uint64(ins.Imm)
		}
	}
	return append(ops, u)
}

// lowerSan emits the DQSan instrumentation uop for a memory instruction.
// It precedes the memory uop (the access may clobber its own base register)
// and carries no cost and no retired instructions, so segment accounting
// and fault-refund arithmetic are unaffected.
func (e *Engine) lowerSan(ops []uop, ins *isa.Instruction, pc uint64, kind uopKind, size uint8) []uop {
	if e.San == nil {
		return ops
	}
	return append(ops, uop{kind: kind, op: ins.Op, pc: pc, rs1: ins.Rs1, imm: ins.Imm, size: size})
}

// segBoundary reports whether k ends a cost segment: every uop that can
// leave the trace (exits, guards, back-edges) or stop the quantum mid-trace
// (atomics, syscalls).
func segBoundary(k uopKind) bool {
	switch k {
	case uGuard, uFusedCmpGuard, uJalrExit, uLoopBack, uExit, uAtomic, uSvcExit, uHaltExit, uEbreakExit:
		return true
	}
	return false
}

// segmentize computes the aggregate cost and instruction count of every
// straight-line segment and stores them on the segment's first uop. The
// compiled trace charges the whole segment on entry; only a mid-segment fault
// (loads/stores, which are not boundaries) needs the per-uop selfCost to
// refund the unexecuted tail.
func segmentize(ops []uop) {
	segStart := 0
	var cost int32
	var insns uint16
	for i := range ops {
		u := &ops[i]
		cost += u.selfCost
		insns += uint16(u.selfInsns)
		if segBoundary(u.kind) || i == len(ops)-1 {
			ops[segStart].cost = cost
			ops[segStart].insns = insns
			cost, insns = 0, 0
			segStart = i + 1
		}
	}
}

// faultSite is what a closure that can stop its trace mid-segment keeps to
// leave exact state: the guest PC of its instruction, and the charge of the
// uops after it in its segment, which did not execute and are refunded.
type faultSite struct {
	pc          uint64
	refundCost  int32
	refundInsns uint32
}

// siteWalk computes fault sites in one backward walk over a segmentized
// stream: it holds the refund of ops[i], the charge of the uops after i up to
// the next one that starts a segment (nonzero insns), and steps to a lower
// index by adding the uop it passes, or by zeroing the sum when that uop
// starts a segment. Sites asked for at falling indices, as compileTier3 asks,
// cost the stream's length in all.
type siteWalk struct {
	ops   []uop
	i     int
	cost  int32
	insns uint32
}

func newSiteWalk(ops []uop) siteWalk { return siteWalk{ops: ops, i: len(ops) - 1} }

// site computes the fault site of ops[i]. A rising index restarts the walk
// from the end of the stream: still exact, only no longer linear.
func (e *Engine) site(w *siteWalk, i int) faultSite {
	if i > w.i {
		*w = newSiteWalk(w.ops)
	}
	for ; w.i > i; w.i-- {
		if u := &w.ops[w.i]; u.insns != 0 {
			w.cost, w.insns = 0, 0
		} else {
			w.cost += u.selfCost
			w.insns += uint32(u.selfInsns)
		}
	}
	s := faultSite{pc: w.ops[i].pc, refundCost: w.cost, refundInsns: w.insns}
	if e.sited != nil {
		e.sited(i, s)
	}
	return s
}

// loadLE reads a little-endian value of 1, 2, 4 or 8 bytes from b.
func loadLE(b []byte, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

// storeLE writes the low size bytes of val into b, little-endian.
func storeLE(b []byte, val uint64, size uint8) {
	switch size {
	case 1:
		b[0] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(val))
	default:
		binary.LittleEndian.PutUint64(b, val)
	}
}

// rdHit probes the inline read TLB for a load of size bytes at addr: a line
// that holds addr's page at the current epoch, with the access inside the
// page, gives the page's bytes from addr on; anything else gives nil, and the
// caller goes to slowLoad. It is the one probe of every load on the block
// interpreter and of the narrow loads of compiled traces, and it inlines.
func (e *Engine) rdHit(addr uint64, size uint8) []byte {
	pn, off := addr>>e.pageShift, addr&e.pageMask
	if ln := &e.rdTLB[pn&(accelTLBSize-1)]; ln.PageNo == pn && ln.Epoch == e.Mem.Epoch() && off+uint64(size) <= e.pageMask+1 {
		return ln.Data[off:]
	}
	return nil
}

// wrHit is rdHit for stores, through the write TLB; a miss goes to
// slowStore.
func (e *Engine) wrHit(addr uint64, size uint8) []byte {
	pn, off := addr>>e.pageShift, addr&e.pageMask
	if ln := &e.wrTLB[pn&(accelTLBSize-1)]; ln.PageNo == pn && ln.Epoch == e.Mem.Epoch() && off+uint64(size) <= e.pageMask+1 {
		return ln.Data[off:]
	}
	return nil
}

// slowLoad services an inline-TLB miss: it performs the access through the
// full softmmu path and, when the page qualifies (resident, readable,
// identity-mapped), installs it in the read TLB for subsequent accesses.
func (e *Engine) slowLoad(addr uint64, size uint8) (uint64, *mem.Fault) {
	v, fault := e.Mem.Load(addr, int(size))
	if fault == nil {
		pn := addr >> e.pageShift
		e.Mem.AccelFill(&e.rdTLB[pn&(accelTLBSize-1)], pn, false)
	}
	return v, fault
}

// slowStore is slowLoad's store counterpart, filling the write TLB.
func (e *Engine) slowStore(addr uint64, val uint64, size uint8) *mem.Fault {
	fault := e.Mem.Store(addr, val, int(size))
	if fault == nil {
		pn := addr >> e.pageShift
		e.Mem.AccelFill(&e.wrTLB[pn&(accelTLBSize-1)], pn, true)
	}
	return fault
}
