// Symbolic translation validation over the micro-op stream.
//
// This file is the bridge between the uop IR and the bit-vector engine in
// internal/tcg/symeq. Registers are hash-consed expression DAGs built
// through one normalizing Builder; memory and atomic results are fresh
// symbols minted in lockstep, so the k-th matching effect on both sides of
// an equivalence query reads the same symbol, and FP results are
// uninterpreted applications. Two uop sequences are equivalent when their
// effects (memory accesses, atomics, guards, exits — everything that can
// fault, trap or leave the trace) line up one-to-one with operands that
// intern to the same node, AND every register interns to the same node at
// every effect boundary. Equality is pointer equality: anything the
// normalizer does not unify is rejected, never searched. The state
// comparison at each boundary is what makes the check sound in the
// presence of faults: a load can fault and expose every register, so no
// rewrite may defer or reorder a write across one.
//
// The translator's rewrites (ADDI folding, cmp+branch fusion) act inside
// straight-line ALU runs, which have no boundaries — exactly the shapes this
// checker discharges by constant folding and normalization alone.
package tcg

import (
	"fmt"

	"dqemu/internal/isa"
	"dqemu/internal/tcg/symeq"
)

// symState is a symbolic machine state: one expression per register.
type symState struct {
	bld *symeq.Builder
	x   [32]*symeq.Expr
	f   [32]*symeq.Expr
}

// newSymPair returns two states over the same initial symbolic registers
// (x0 pinned to the architectural zero) so divergence is attributable to
// the uop sequences alone.
func newSymPair(bld *symeq.Builder) (a, b symState) {
	a.bld, b.bld = bld, bld
	a.x[0] = bld.Const(0)
	for i := 1; i < 32; i++ {
		a.x[i] = bld.Var(fmt.Sprintf("x%d", i))
	}
	for i := 0; i < 32; i++ {
		a.f[i] = bld.Var(fmt.Sprintf("f%d", i))
	}
	b.x, b.f = a.x, a.f
	return a, b
}

// symPure applies u to the state when u is pure — no fault, no exit, no
// externally visible action: a nop, a link write, or a uPure by its op —
// mirroring compileMid's ALU and FP closures operator for operator, and
// sharing nothing with them: -verify is worth
// what the symbolic side's independence of the concrete one is worth.
// Returns false when u is an effect the lockstep matcher must handle.
func (st *symState) symPure(u *uop) bool {
	b := st.bld
	x := &st.x
	f := &st.f
	bin := func(op symeq.Op) *symeq.Expr { return b.Bin(op, x[u.rs1], x[u.rs2]) }
	imm := func(op symeq.Op) *symeq.Expr { return b.Bin(op, x[u.rs1], b.Const(uint64(u.imm))) }
	fun2 := func(tag string) *symeq.Expr { return b.Fun(tag, f[u.rs1], f[u.rs2]) }
	fun1 := func(tag string) *symeq.Expr { return b.Fun(tag, f[u.rs1]) }

	switch u.kind {
	case uNop:
		return true
	case uLink:
		if u.rd != 0 {
			x[u.rd] = b.Const(u.val)
		}
		return true
	case uPure: // by op, below
	default:
		return false
	}
	switch u.op {
	case isa.OpADD:
		x[u.rd] = bin(symeq.Add)
	case isa.OpSUB:
		x[u.rd] = bin(symeq.Sub)
	case isa.OpMUL:
		x[u.rd] = bin(symeq.Mul)
	case isa.OpDIV:
		x[u.rd] = bin(symeq.Div)
	case isa.OpDIVU:
		x[u.rd] = bin(symeq.DivU)
	case isa.OpREM:
		x[u.rd] = bin(symeq.Rem)
	case isa.OpREMU:
		x[u.rd] = bin(symeq.RemU)
	case isa.OpAND:
		x[u.rd] = bin(symeq.And)
	case isa.OpOR:
		x[u.rd] = bin(symeq.Or)
	case isa.OpXOR:
		x[u.rd] = bin(symeq.Xor)
	case isa.OpSLL:
		x[u.rd] = bin(symeq.Shl) // symeq shifts mask the amount mod 64
	case isa.OpSRL:
		x[u.rd] = bin(symeq.Shr)
	case isa.OpSRA:
		x[u.rd] = bin(symeq.Sar)
	case isa.OpSLT:
		x[u.rd] = bin(symeq.LtS)
	case isa.OpSLTU:
		x[u.rd] = bin(symeq.LtU)
	case isa.OpADDI:
		x[u.rd] = imm(symeq.Add)
	case isa.OpANDI:
		x[u.rd] = imm(symeq.And)
	case isa.OpORI:
		x[u.rd] = imm(symeq.Or)
	case isa.OpXORI:
		x[u.rd] = imm(symeq.Xor)
	case isa.OpSLLI:
		x[u.rd] = imm(symeq.Shl)
	case isa.OpSRLI:
		x[u.rd] = imm(symeq.Shr)
	case isa.OpSRAI:
		x[u.rd] = imm(symeq.Sar)
	case isa.OpSLTI:
		x[u.rd] = imm(symeq.LtS)
	case isa.OpMOVIW, isa.OpMOVID:
		x[u.rd] = b.Const(u.val)

	case isa.OpFADD:
		f[u.rd] = fun2("fadd")
	case isa.OpFSUB:
		f[u.rd] = fun2("fsub")
	case isa.OpFMUL:
		f[u.rd] = fun2("fmul")
	case isa.OpFDIV:
		f[u.rd] = fun2("fdiv")
	case isa.OpFMIN:
		f[u.rd] = fun2("fmin")
	case isa.OpFMAX:
		f[u.rd] = fun2("fmax")
	case isa.OpFSQRT:
		f[u.rd] = fun1("fsqrt")
	case isa.OpFNEG:
		f[u.rd] = fun1("fneg")
	case isa.OpFABS:
		f[u.rd] = fun1("fabs")
	case isa.OpFEXP:
		f[u.rd] = fun1("fexp")
	case isa.OpFLN:
		f[u.rd] = fun1("fln")
	case isa.OpFMOVD:
		f[u.rd] = b.Const(u.val)
	case isa.OpFMV:
		f[u.rd] = f[u.rs1]
	case isa.OpFMVXD:
		x[u.rd] = f[u.rs1]
	case isa.OpFMVDX:
		f[u.rd] = x[u.rs1]
	case isa.OpFCVTDL:
		f[u.rd] = b.Fun("fcvtdl", x[u.rs1])
	case isa.OpFCVTLD:
		x[u.rd] = fun1("fcvtld")
	case isa.OpFEQ:
		x[u.rd] = fun2("feq")
	case isa.OpFLT:
		x[u.rd] = fun2("flt")
	case isa.OpFLE:
		x[u.rd] = fun2("fle")

	default:
		return false
	}
	return true
}

// addrExpr is a memory uop's effective address x[rs1] + imm.
func (st *symState) addrExpr(u *uop) *symeq.Expr {
	return st.bld.Bin(symeq.Add, st.x[u.rs1], st.bld.Const(uint64(u.imm)))
}

// takeExpr is takeBranch as a 0/1 expression.
func takeExpr(b *symeq.Builder, op isa.Op, x, y *symeq.Expr) *symeq.Expr {
	switch op {
	case isa.OpBEQ:
		return b.Bin(symeq.Eq, x, y)
	case isa.OpBNE:
		return b.Not(b.Bin(symeq.Eq, x, y))
	case isa.OpBLT:
		return b.Bin(symeq.LtS, x, y)
	case isa.OpBGE:
		return b.Not(b.Bin(symeq.LtS, x, y))
	case isa.OpBLTU:
		return b.Bin(symeq.LtU, x, y)
	default: // OpBGEU
		return b.Not(b.Bin(symeq.LtU, x, y))
	}
}

// branchTake evaluates a guard/branch-exit uop's "taken" condition,
// applying the fused compare's register write as a side effect (the
// executor writes the compare result before deciding the branch).
func (st *symState) branchTake(u *uop) *symeq.Expr {
	b := st.bld
	switch u.kind {
	case uFusedCmpGuard, uFusedCmpExit:
		op := symeq.LtS
		if u.cmpU {
			op = symeq.LtU
		}
		c := b.Bin(op, st.x[u.rs1], st.x[u.rs2])
		st.x[u.rd] = c
		return takeExpr(b, u.op, c, b.Const(0))
	default:
		return takeExpr(b, u.op, st.x[u.rs1], st.x[u.rs2])
	}
}

// effClass collapses fused and unfused control uops into one comparable
// effect class; every other effect kind is its own class.
func effClass(k uopKind) uopKind {
	switch k {
	case uFusedCmpGuard:
		return uGuard
	case uFusedCmpExit:
		return uBranchExit
	}
	return k
}

// symEquivSeq proves ref and got equivalent for every input, or explains
// the first divergence. ref is the per-instruction reference lowering;
// got is the folded and fused stream actually installed.
func symEquivSeq(ref, got []uop) error {
	bld := symeq.NewBuilder()
	a, b := newSymPair(bld)

	prove := func(x, y *symeq.Expr, what string) error {
		if x != y {
			return fmt.Errorf("%s not provably equal", what)
		}
		return nil
	}
	stateEq := func(where string) error {
		for i := range a.x {
			if a.x[i] != b.x[i] {
				return fmt.Errorf("x%d not provably equal at %s", i, where)
			}
		}
		for i := range a.f {
			if a.f[i] != b.f[i] {
				return fmt.Errorf("f%d not provably equal at %s", i, where)
			}
		}
		return nil
	}

	ia, ib, k := 0, 0, 0
	for {
		for ia < len(ref) && a.symPure(&ref[ia]) {
			ia++
		}
		for ib < len(got) && b.symPure(&got[ib]) {
			ib++
		}
		if ia == len(ref) && ib == len(got) {
			return stateEq("sequence end")
		}
		if ia == len(ref) || ib == len(got) {
			return fmt.Errorf("effect count mismatch: reference has %s, rewritten stream ended",
				sideDesc(ref, ia, got, ib))
		}
		ru, gu := &ref[ia], &got[ib]
		if effClass(ru.kind) != effClass(gu.kind) {
			return fmt.Errorf("effect %d: reference %s vs rewritten %s at pc %#x",
				k, uopName(ru), uopName(gu), ru.pc)
		}
		site := fmt.Sprintf("effect %d (%s at pc %#x)", k, uopName(gu), gu.pc)
		if ru.pc != gu.pc {
			return fmt.Errorf("%s: pc differs from reference %#x", site, ru.pc)
		}

		switch effClass(ru.kind) {
		case uSanRead, uSanWrite:
			// Sanitizer probes: same access shape; they observe only the
			// computed address, never the register file.
			if ru.kind != gu.kind || ru.size != gu.size {
				return fmt.Errorf("%s: sanitizer probe shape differs", site)
			}
			if err := prove(a.addrExpr(ru), b.addrExpr(gu), site+" address"); err != nil {
				return err
			}
		case uFence:
			// No operands, no state observation.
		case uLoad:
			if err := stateEq(site); err != nil {
				return err
			}
			if ru.size != gu.size || ru.sh != gu.sh || ru.rd != gu.rd {
				return fmt.Errorf("%s: load shape differs from reference", site)
			}
			if err := prove(a.addrExpr(ru), b.addrExpr(gu), site+" address"); err != nil {
				return err
			}
			raw := bld.Var(fmt.Sprintf("ld%d", k))
			a.applyLoad(ru, raw)
			b.applyLoad(gu, raw)
		case uFLoad:
			if err := stateEq(site); err != nil {
				return err
			}
			if err := prove(a.addrExpr(ru), b.addrExpr(gu), site+" address"); err != nil {
				return err
			}
			raw := bld.Var(fmt.Sprintf("fld%d", k))
			a.f[ru.rd] = raw
			b.f[gu.rd] = raw
			if ru.rd != gu.rd {
				return fmt.Errorf("%s: fload destination differs", site)
			}
		case uStore:
			if err := stateEq(site); err != nil {
				return err
			}
			if ru.size != gu.size {
				return fmt.Errorf("%s: store width differs", site)
			}
			if err := prove(a.addrExpr(ru), b.addrExpr(gu), site+" address"); err != nil {
				return err
			}
			if err := prove(a.x[ru.rs2], b.x[gu.rs2], site+" value"); err != nil {
				return err
			}
		case uFStore:
			if err := stateEq(site); err != nil {
				return err
			}
			if err := prove(a.addrExpr(ru), b.addrExpr(gu), site+" address"); err != nil {
				return err
			}
			if err := prove(a.f[ru.rs2], b.f[gu.rs2], site+" value"); err != nil {
				return err
			}

		case uGuard:
			takeA := a.branchTake(ru)
			takeB := b.branchTake(gu)
			if ru.expectTaken != gu.expectTaken || ru.npc != gu.npc {
				return fmt.Errorf("%s: guard polarity or off-trace target differs", site)
			}
			if err := prove(takeA, takeB, site+" condition"); err != nil {
				return err
			}
			if err := stateEq(site); err != nil {
				return err
			}
		case uBranchExit:
			takeA := a.branchTake(ru)
			takeB := b.branchTake(gu)
			if ru.npc != gu.npc || ru.npc2 != gu.npc2 {
				return fmt.Errorf("%s: branch targets differ", site)
			}
			if err := prove(takeA, takeB, site+" condition"); err != nil {
				return err
			}
			if err := stateEq(site); err != nil {
				return err
			}
		case uJalExit:
			a.linkWrite(ru)
			b.linkWrite(gu)
			if ru.npc != gu.npc {
				return fmt.Errorf("%s: jump target differs", site)
			}
			if err := stateEq(site); err != nil {
				return err
			}
		case uJalrExit:
			tA := bld.Bin(symeq.And, a.addrExpr(ru), bld.Const(^uint64(3)))
			tB := bld.Bin(symeq.And, b.addrExpr(gu), bld.Const(^uint64(3)))
			a.linkWrite(ru)
			b.linkWrite(gu)
			if err := prove(tA, tB, site+" target"); err != nil {
				return err
			}
			if err := stateEq(site); err != nil {
				return err
			}
		case uLoopBack:
			// The back edge restarts the trace: state equality here plus
			// equality of every effect inside the iteration proves all
			// iterations equal by induction.
			if err := stateEq(site); err != nil {
				return err
			}
		case uExit:
			if ru.npc != gu.npc {
				return fmt.Errorf("%s: exit target differs", site)
			}
			if err := stateEq(site); err != nil {
				return err
			}

		case uAtomic:
			if ru.op != gu.op {
				return fmt.Errorf("%s: atomic differs from reference %s", site, uopName(ru))
			}
			if err := stateEq(site); err != nil {
				return err
			}
			if err := prove(a.x[ru.rs1], b.x[gu.rs1], site+" address"); err != nil {
				return err
			}
			if ru.op != isa.OpLL {
				if err := prove(a.x[ru.rs2], b.x[gu.rs2], site+" operand"); err != nil {
					return err
				}
			}
			if ru.op == isa.OpCAS {
				if err := prove(a.x[ru.rd], b.x[gu.rd], site+" compare value"); err != nil {
					return err
				}
			}
			res := bld.Var(fmt.Sprintf("%s%d", ru.op, k))
			a.wrSym(ru.rd, res)
			b.wrSym(gu.rd, res)

		case uSvcExit, uHaltExit, uEbreakExit:
			if ru.kind != gu.kind {
				return fmt.Errorf("%s: trap kind differs", site)
			}
			if err := stateEq(site); err != nil {
				return err
			}
		case uHint:
			if ru.imm != gu.imm {
				return fmt.Errorf("%s: hint group differs", site)
			}
			if err := stateEq(site); err != nil {
				return err
			}

		default:
			return fmt.Errorf("%s: unverifiable uop kind", site)
		}
		ia++
		ib++
		k++
	}
}

// applyLoad writes a load result derived from the shared raw symbol,
// applying the uop's own sign-extension shift.
func (st *symState) applyLoad(u *uop, raw *symeq.Expr) {
	v := raw
	if u.sh != 0 {
		sh := st.bld.Const(uint64(u.sh))
		v = st.bld.Bin(symeq.Sar, st.bld.Bin(symeq.Shl, raw, sh), sh)
	}
	st.wrSym(u.rd, v)
}

// wrSym mirrors wr(): x0 stays the architectural zero.
func (st *symState) wrSym(rd uint8, v *symeq.Expr) {
	if rd != 0 {
		st.x[rd] = v
	}
}

// linkWrite applies the link-register write of a jal/jalr exit.
func (st *symState) linkWrite(u *uop) {
	if u.rd != 0 {
		st.x[u.rd] = st.bld.Const(u.val)
	}
}

func sideDesc(ref []uop, ia int, got []uop, ib int) string {
	if ia < len(ref) {
		return fmt.Sprintf("%s at pc %#x", uopName(&ref[ia]), ref[ia].pc)
	}
	return fmt.Sprintf("extra %s at pc %#x", uopName(&got[ib]), got[ib].pc)
}
