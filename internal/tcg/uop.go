// Micro-op lowering: the compile-time IR of a compiled trace (see trace.go).
// A trace's guest instructions are pre-decoded into a flat uop array: loads
// and stores carry a pre-resolved width and sign-extension shift,
// long-immediate moves carry the materialized constant, compare+branch pairs
// and ADDI chains are fused, and virtual-time costs are aggregated per
// straight-line segment so the compiled trace charges the cost model once
// per segment instead of once per instruction.
//
// Nothing executes uops. The array is what -verify proves (symEquivSeq
// against the reference lowering, checkTier3 against the closures) and what
// compileTier3 reads once to build the closures that do run (tier3.go). The
// superblock keeps it afterwards as fault metadata: every uop holds the guest
// PC of the instruction it came from and its own cost, so a fault, syscall or
// contended atomic leaves the trace with architecturally exact state
// (refundTail) and internal/core's restart-at-faulting-instruction contract
// holds unchanged.
package tcg

import (
	"encoding/binary"
	"strconv"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

type uopKind uint8

const (
	uNop uopKind = iota

	// Integer register-register.
	uAdd
	uSub
	uMul
	uDiv
	uDivU
	uRem
	uRemU
	uAnd
	uOr
	uXor
	uSll
	uSrl
	uSra
	uSlt
	uSltu

	// Integer register-immediate.
	uAddi
	uAndi
	uOri
	uXori
	uSlli
	uSrli
	uSrai
	uSlti

	uLi // rd = val (materialized MOVIW/MOVID constant)

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

	// Control flow. Guards keep execution on the trace: a guard evaluates
	// its branch and side-exits when the outcome differs from the direction
	// the trace followed. Exit uops end the trace unconditionally.
	uGuard
	uFusedCmpGuard // slt/sltu fused with a beqz/bnez guard
	uBranchExit
	uFusedCmpExit
	uLink     // JAL followed in-trace: just the link write
	uJalExit  // JAL ending the trace
	uJalrExit // indirect branch: target resolved via the jump cache
	uLoopBack // back-edge to uop 0 (trace loops onto its own head)
	uExit     // straight-line trace end

	// Atomics and fences. Atomics end a cost segment because they can fault
	// or (under StopAtomic) end the quantum mid-trace.
	uLL
	uSC
	uCAS
	uAmoAdd
	uAmoSwap
	uFence

	// System.
	uSvcExit
	uHint
	uHaltExit
	uEbreakExit

	// Floating point.
	uFAdd
	uFSub
	uFMul
	uFDiv
	uFMin
	uFMax
	uFSqrt
	uFNeg
	uFAbs
	uFExp
	uFLn
	uFMovImm
	uFMv
	uFMvXD
	uFMvDX
	uFCvtDL
	uFCvtLD
	uFEq
	uFLt
	uFLe
)

// kindNames maps uop kinds to the short names diagnostics print.
var kindNames = [...]string{
	uNop: "nop",
	uAdd: "add", uSub: "sub", uMul: "mul", uDiv: "div", uDivU: "divu",
	uRem: "rem", uRemU: "remu", uAnd: "and", uOr: "or", uXor: "xor",
	uSll: "sll", uSrl: "srl", uSra: "sra", uSlt: "slt", uSltu: "sltu",
	uAddi: "addi", uAndi: "andi", uOri: "ori", uXori: "xori",
	uSlli: "slli", uSrli: "srli", uSrai: "srai", uSlti: "slti",
	uLi:   "li",
	uLoad: "load", uStore: "store", uFLoad: "fload", uFStore: "fstore",
	uSanRead: "sanread", uSanWrite: "sanwrite",
	uGuard: "guard", uFusedCmpGuard: "cmpguard",
	uBranchExit: "brexit", uFusedCmpExit: "cmpexit",
	uLink: "link", uJalExit: "jalexit", uJalrExit: "jalrexit",
	uLoopBack: "loopback", uExit: "exit",
	uLL: "ll", uSC: "sc", uCAS: "cas", uAmoAdd: "amoadd", uAmoSwap: "amoswap",
	uFence:   "fence",
	uSvcExit: "svc", uHint: "hint", uHaltExit: "halt", uEbreakExit: "ebreak",
	uFAdd: "fadd", uFSub: "fsub", uFMul: "fmul", uFDiv: "fdiv",
	uFMin: "fmin", uFMax: "fmax", uFSqrt: "fsqrt", uFNeg: "fneg",
	uFAbs: "fabs", uFExp: "fexp", uFLn: "fln", uFMovImm: "fmovi",
	uFMv: "fmv", uFMvXD: "fmvxd", uFMvDX: "fmvdx",
	uFCvtDL: "fcvtdl", uFCvtLD: "fcvtld",
	uFEq: "feq", uFLt: "flt", uFLe: "fle",
}

func kindName(k uopKind) string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "u" + strconv.Itoa(int(k))
}

// uop is one pre-decoded micro-operation of a superblock.
type uop struct {
	imm int64
	val uint64 // materialized constant / link value / FP literal bits
	pc  uint64 // guest PC of the originating instruction
	npc uint64 // taken / off-trace / continuation target

	npc2 uint64 // fall-through target for branch exits

	cost     int32  // aggregate virtual cost of the segment starting here
	selfCost int32  // this uop's own virtual cost (segment accounting)
	insns    uint16 // segment guest-insn count; nonzero marks a segment start
	exit     int16  // exit-slot index for npc (-1 = none / dynamic)
	exit2    int16  // exit-slot index for npc2

	kind        uopKind
	rd          uint8
	rs1         uint8
	rs2         uint8
	size        uint8  // load/store width in bytes
	sh          uint8  // load sign-extension shift (64 - 8*size); 0 = none
	bop         isa.Op // branch op for guards/branch exits
	selfInsns   uint8  // guest instructions this uop retires (2+ when fused)
	cmpU        bool   // fused compare is unsigned (sltu)
	expectTaken bool   // guard: branch direction the trace follows
}

// lowerInsn appends the uop(s) for one guest instruction to ops. Pure
// straight-line instructions only; block terminators are lowered by
// buildTrace, which knows whether the trace follows or exits them.
func (e *Engine) lowerInsn(ops []uop, ins *isa.Instruction, pc uint64) []uop {
	u := uop{pc: pc, selfInsns: 1, selfCost: int32(e.opCost[ins.Op]), exit: -1, exit2: -1,
		rd: ins.Rd, rs1: ins.Rs1, rs2: ins.Rs2, imm: ins.Imm}

	// Integer ALU results into x0 have no architectural effect; keep the
	// cost charge but drop the work.
	alu := func(k uopKind) uop {
		if ins.Rd == 0 {
			u.kind = uNop
			return u
		}
		u.kind = k
		return u
	}

	switch ins.Op {
	case isa.OpADD:
		u = alu(uAdd)
	case isa.OpSUB:
		u = alu(uSub)
	case isa.OpMUL:
		u = alu(uMul)
	case isa.OpDIV:
		u = alu(uDiv)
	case isa.OpDIVU:
		u = alu(uDivU)
	case isa.OpREM:
		u = alu(uRem)
	case isa.OpREMU:
		u = alu(uRemU)
	case isa.OpAND:
		u = alu(uAnd)
	case isa.OpOR:
		u = alu(uOr)
	case isa.OpXOR:
		u = alu(uXor)
	case isa.OpSLL:
		u = alu(uSll)
	case isa.OpSRL:
		u = alu(uSrl)
	case isa.OpSRA:
		u = alu(uSra)
	case isa.OpSLT:
		u = alu(uSlt)
	case isa.OpSLTU:
		u = alu(uSltu)

	case isa.OpADDI:
		if ins.Rd != 0 && len(ops) > 0 {
			// Fold ADDI chains on the same register into one uop, and drop a
			// move bounced straight back (addi rd,rs,0 ; addi rs,rd,0: rs
			// holds the value already; a uAddi's rd is never x0). The
			// intermediate value is never observable: ADDI cannot fault, so
			// any exit between the two additions is impossible.
			p := &ops[len(ops)-1]
			chain := ins.Rs1 == ins.Rd && p.rd == ins.Rd
			bounce := ins.Imm == 0 && p.imm == 0 && ins.Rs1 == p.rd && ins.Rd == p.rs1
			if p.kind == uAddi && (chain || bounce) && p.selfInsns < 255 {
				p.imm += ins.Imm
				p.selfCost += u.selfCost
				p.selfInsns++
				e.Stats.FusedUops++
				return ops
			}
		}
		u = alu(uAddi)
	case isa.OpANDI:
		u = alu(uAndi)
	case isa.OpORI:
		u = alu(uOri)
	case isa.OpXORI:
		u = alu(uXori)
	case isa.OpSLLI:
		u = alu(uSlli)
	case isa.OpSRLI:
		u = alu(uSrli)
	case isa.OpSRAI:
		u = alu(uSrai)
	case isa.OpSLTI:
		u = alu(uSlti)

	case isa.OpMOVIW, isa.OpMOVID:
		u.val = uint64(ins.Imm)
		u = alu(uLi)

	case isa.OpLB:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 1)
		u.kind, u.size, u.sh = uLoad, 1, 56
	case isa.OpLBU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 1)
		u.kind, u.size = uLoad, 1
	case isa.OpLH:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 2)
		u.kind, u.size, u.sh = uLoad, 2, 48
	case isa.OpLHU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 2)
		u.kind, u.size = uLoad, 2
	case isa.OpLW:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 4)
		u.kind, u.size, u.sh = uLoad, 4, 32
	case isa.OpLWU:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 4)
		u.kind, u.size = uLoad, 4
	case isa.OpLD:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 8)
		u.kind, u.size = uLoad, 8
	case isa.OpSB:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 1)
		u.kind, u.size = uStore, 1
	case isa.OpSH:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 2)
		u.kind, u.size = uStore, 2
	case isa.OpSW:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 4)
		u.kind, u.size = uStore, 4
	case isa.OpSD:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 8)
		u.kind, u.size = uStore, 8
	case isa.OpFLD:
		ops = e.lowerSan(ops, ins, pc, uSanRead, 8)
		u.kind = uFLoad
	case isa.OpFSD:
		ops = e.lowerSan(ops, ins, pc, uSanWrite, 8)
		u.kind = uFStore

	case isa.OpLL:
		u.kind = uLL
	case isa.OpSC:
		u.kind = uSC
	case isa.OpCAS:
		u.kind = uCAS
	case isa.OpAMOADD:
		u.kind = uAmoAdd
	case isa.OpAMOSWAP:
		u.kind = uAmoSwap
	case isa.OpFENCE:
		u.kind = uFence

	case isa.OpHINT:
		u.kind = uHint
	case isa.OpNOP:
		u.kind = uNop

	case isa.OpFADD:
		u.kind = uFAdd
	case isa.OpFSUB:
		u.kind = uFSub
	case isa.OpFMUL:
		u.kind = uFMul
	case isa.OpFDIV:
		u.kind = uFDiv
	case isa.OpFMIN:
		u.kind = uFMin
	case isa.OpFMAX:
		u.kind = uFMax
	case isa.OpFSQRT:
		u.kind = uFSqrt
	case isa.OpFNEG:
		u.kind = uFNeg
	case isa.OpFABS:
		u.kind = uFAbs
	case isa.OpFEXP:
		u.kind = uFExp
	case isa.OpFLN:
		u.kind = uFLn
	case isa.OpFMOVD:
		u.kind, u.val = uFMovImm, uint64(ins.Imm)
	case isa.OpFMV:
		u.kind = uFMv
	case isa.OpFMVXD:
		u = alu(uFMvXD)
	case isa.OpFMVDX:
		u.kind = uFMvDX
	case isa.OpFCVTDL:
		u.kind = uFCvtDL
	case isa.OpFCVTLD:
		u = alu(uFCvtLD)
	case isa.OpFEQ:
		u = alu(uFEq)
	case isa.OpFLT:
		u = alu(uFLt)
	case isa.OpFLE:
		u = alu(uFLe)

	default:
		// Terminators (branches, SVC, HALT, EBREAK) never reach lowerInsn;
		// anything else is undecodable here and ends the trace at runtime.
		u.kind = uEbreakExit
		u.pc = pc
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
	return append(ops, uop{kind: kind, pc: pc, rs1: ins.Rs1, imm: ins.Imm, size: size, exit: -1, exit2: -1})
}

// segBoundary reports whether k ends a cost segment: every uop that can
// leave the trace (exits, guards, back-edges) or stop the quantum mid-trace
// (atomics, syscalls, hints that may flush the cache).
func segBoundary(k uopKind) bool {
	switch k {
	case uGuard, uFusedCmpGuard, uBranchExit, uFusedCmpExit, uJalExit,
		uJalrExit, uLoopBack, uExit, uLL, uSC, uCAS, uAmoAdd, uAmoSwap,
		uSvcExit, uHint, uHaltExit, uEbreakExit:
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

// refundTail gives back the cost/insn charge of the uops after index i in
// i's segment, which did not execute because i faulted or exited early.
func refundTail(sb *superblock, i int, spent *int64, executed *uint64) {
	for j := i + 1; j < len(sb.ops); j++ {
		u := &sb.ops[j]
		if u.insns != 0 {
			break
		}
		*spent -= int64(u.selfCost)
		*executed -= uint64(u.selfInsns)
	}
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
