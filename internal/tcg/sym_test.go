package tcg

import (
	"strings"
	"testing"

	"dqemu/internal/isa"
)

func alu2(op isa.Op, rd, rs1, rs2 uint8) uop {
	return uop{kind: uPure, op: op, rd: rd, rs1: rs1, rs2: rs2, selfInsns: 1, selfCost: 1}
}

func alui(op isa.Op, rd, rs1 uint8, imm int64) uop {
	return uop{kind: uPure, op: op, rd: rd, rs1: rs1, imm: imm, selfInsns: 1, selfCost: 1}
}

func TestSymEquivSeqProvesAlgebraicRewrites(t *testing.T) {
	cases := []struct {
		name     string
		ref, got []uop
	}{
		{
			"addi fold",
			[]uop{alui(isa.OpADDI, 1, 2, 10), alui(isa.OpADDI, 1, 1, 20)},
			[]uop{alui(isa.OpADDI, 1, 2, 30)},
		},
		{
			"xor-self to li 0",
			[]uop{alu2(isa.OpXOR, 3, 7, 7)},
			[]uop{{kind: uPure, op: isa.OpMOVID, rd: 3, val: 0, selfInsns: 1, selfCost: 1}},
		},
		{
			"independent addi commute",
			[]uop{alui(isa.OpADDI, 1, 2, 5), alui(isa.OpADDI, 3, 4, 6)},
			[]uop{alui(isa.OpADDI, 3, 4, 6), alui(isa.OpADDI, 1, 2, 5)},
		},
		{
			"empty both",
			nil, nil,
		},
	}
	for _, c := range cases {
		if err := symEquivSeq(c.ref, c.got); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestSymEquivSeqRejectsWrongRewrites(t *testing.T) {
	ld := uop{kind: uLoad, rd: 3, rs1: 4, imm: 8, size: 8, pc: 0x100, selfInsns: 1, selfCost: 1}
	st := uop{kind: uStore, rs1: 4, rs2: 5, imm: 8, size: 8, pc: 0x104, selfInsns: 1, selfCost: 1}
	amo := uop{kind: uAtomic, op: isa.OpAMOADD, rd: 3, rs1: 4, rs2: 5, pc: 0x108, selfInsns: 1, selfCost: 1}

	cases := []struct {
		name     string
		ref, got []uop
		want     string // substring of the diagnostic
	}{
		{
			"unsound immediate change",
			[]uop{alui(isa.OpADDI, 1, 1, 1)},
			[]uop{alui(isa.OpADDI, 1, 1, 2)},
			"x1",
		},
		{
			"off-by-one addi fold",
			[]uop{alui(isa.OpADDI, 1, 2, 10), alui(isa.OpADDI, 1, 1, 20)},
			[]uop{alui(isa.OpADDI, 1, 2, 31)},
			"x1",
		},
		{
			"result materialized into x0",
			[]uop{alui(isa.OpADDI, 3, 3, 0)},
			[]uop{{kind: uPure, op: isa.OpMOVID, rd: 0, val: 7, selfInsns: 1, selfCost: 1}},
			"x0",
		},
		{
			"dropped write",
			[]uop{alui(isa.OpADDI, 1, 2, 5)},
			nil,
			"x1",
		},
		{
			"wrong load address",
			[]uop{ld},
			[]uop{func() uop { u := ld; u.imm = 16; return u }()},
			"address",
		},
		{
			"store value from wrong register",
			[]uop{st},
			[]uop{func() uop { u := st; u.rs2 = 6; return u }()},
			"value",
		},
		{
			"memory reorder",
			[]uop{st, ld},
			[]uop{ld, st},
			"effect",
		},
		{
			"write deferred across a store",
			[]uop{alui(isa.OpADDI, 1, 1, 7), st},
			[]uop{st, alui(isa.OpADDI, 1, 1, 7)},
			"x1",
		},
		{
			"atomic op changed",
			[]uop{amo},
			[]uop{func() uop { u := amo; u.op = isa.OpAMOSWAP; return u }()},
			"atomic differs",
		},
		{
			"dropped effect",
			[]uop{st},
			nil,
			"effect count",
		},
	}
	for _, c := range cases {
		err := symEquivSeq(c.ref, c.got)
		if err == nil {
			t.Errorf("%s: proved equivalent, want rejection", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: diagnostic %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSymEquivSeqProvesCmpBranchFusion checks the slt+guard -> fused
// compare-guard rewrite buildTrace performs: the fused form must prove
// equal, and a polarity flip must be rejected.
func TestSymEquivSeqProvesCmpBranchFusion(t *testing.T) {
	cmp := alu2(isa.OpSLT, 5, 6, 7)
	guard := uop{kind: uGuard, rs1: 5, rs2: 0, op: isa.OpBNE, expectTaken: true,
		pc: 0x200, npc: 0x300, selfInsns: 1, selfCost: 1, exit: 0}
	fused := guard
	fused.kind = uFusedCmpGuard
	fused.rd, fused.rs1, fused.rs2 = 5, 6, 7
	fused.selfInsns, fused.selfCost = 2, 2

	if err := symEquivSeq([]uop{cmp, guard}, []uop{fused}); err != nil {
		t.Errorf("fused compare-guard: %v", err)
	}

	flipped := fused
	flipped.expectTaken = false
	if err := symEquivSeq([]uop{cmp, guard}, []uop{flipped}); err == nil {
		t.Error("polarity flip proved equivalent, want rejection")
	}

	wrongOperand := fused
	wrongOperand.rs1 = 8
	if err := symEquivSeq([]uop{cmp, guard}, []uop{wrongOperand}); err == nil {
		t.Error("wrong compare operand proved equivalent, want rejection")
	}
}

// TestVerifyLadderCleanRun runs the three-rung differential workload with
// translate-time verification enabled on every rung: all traces must prove
// equivalent (zero demotions), every closure compilation must pass the
// structural checker, and the final state must still match the
// interpreter.
func TestVerifyLadderCleanRun(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 300
	li   s3, 0x20000
	fmovd f2, 1.5
loop:
	sd   s1, 0(s3)
	sd   s0, 8(s3)
	ld   t0, 0(s3)
	ld   t1, 8(s3)
	add  s0, t0, t1
	fsd  f2, 16(s3)
	fld  f3, 16(s3)
	fadd f2, f3, f2
	addi t3, s0, 0
	addi s0, t3, 0
	addi s5, s5, 0
	addi t2, s0, 7
	andi t2, t2, 1023
	xor  s0, s0, t2
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	fcvt.l.d s4, f2
	halt
`
	type state struct {
		x  [32]uint64
		f  [32]float64
		pc uint64
	}
	states := map[string]state{}
	for name, tune := range tier3Rungs() {
		tune := tune
		cpu, e := tier3State(t, src, func(e *Engine) {
			tune(e)
			e.Verify = true
			e.OnVerifyFail = func(where string, entry uint64, err error) {
				t.Errorf("%s: verification failure in %s at %#x: %v", name, where, entry, err)
			}
		})
		states[name] = state{cpu.X, cpu.F, cpu.PC}
		if e.Stats.VerifyDemotions != 0 {
			t.Errorf("%s: %d verify demotions on a clean run", name, e.Stats.VerifyDemotions)
		}
		if name == "compiled" &&
			(e.Stats.VerifiedSuperblocks == 0 || e.Stats.VerifiedTier3 != e.Stats.VerifiedSuperblocks) {
			t.Errorf("%s: %d traces proved, %d compilations checked; want every trace, and at least one",
				name, e.Stats.VerifiedSuperblocks, e.Stats.VerifiedTier3)
		}
		if e.Stats.Tier3CheckFailures != 0 {
			t.Errorf("%s: %d structural check failures", name, e.Stats.Tier3CheckFailures)
		}
	}
	want := states["interp"]
	for name, got := range states {
		if got != want {
			t.Errorf("rung %s diverged from interpreter under -verify", name)
		}
	}
}
