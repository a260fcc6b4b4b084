package tcg

import (
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

func TestFailedCASYields(t *testing.T) {
	// A failing CAS ends the quantum (StopBudget);
	// a succeeding one does not.
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li  t0, 0x20000
	li  a1, 5
	sd  a1, 0(t0)
	li  a0, 99          ; expected value is wrong -> CAS fails
	li  a2, 7
	cas a0, a2, (t0)
	li  s0, 1           ; runs in the next quantum
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}

	res := e.Exec(cpu, 1<<40)
	if res.Reason != StopBudget {
		t.Fatalf("expected quantum end at failed CAS, got %v", res.Reason)
	}
	if cpu.X[isa.RegS0] != 0 {
		t.Fatal("instructions after the failed CAS ran in the same quantum")
	}
	if cpu.X[isa.RegA0] != 5 {
		t.Fatalf("CAS should report old value 5, got %d", cpu.X[isa.RegA0])
	}
	res = e.Exec(cpu, 1<<40)
	if res.Reason != StopHalt || cpu.X[isa.RegS0] != 1 {
		t.Fatalf("resume failed: %v s0=%d", res.Reason, cpu.X[isa.RegS0])
	}
}

func TestFailedSCYields(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li  t0, 0x20000
	sc  a0, a1, (t0)    ; no reservation -> fails
	li  s0, 1
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 1<<40)
	if res.Reason != StopBudget || cpu.X[isa.RegA0] != 1 || cpu.X[isa.RegS0] != 0 {
		t.Fatalf("failed SC should end quantum: %v a0=%d s0=%d", res.Reason, cpu.X[isa.RegA0], cpu.X[isa.RegS0])
	}
}

func TestLongStraightLineBlockSplits(t *testing.T) {
	// More than MaxBlockInsns straight-line instructions split into chained
	// blocks that still execute correctly.
	src := "_start:\n"
	for i := 0; i < MaxBlockInsns*2+10; i++ {
		src += "\taddi t0, t0, 1\n"
	}
	src += "\thalt\n"
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	if res := e.Exec(cpu, 1<<40); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if got := cpu.X[isa.RegT0]; got != uint64(MaxBlockInsns*2+10) {
		t.Errorf("t0 = %d", got)
	}
	if e.Stats.Blocks < 3 {
		t.Errorf("expected >= 3 blocks, got %d", e.Stats.Blocks)
	}
}

func TestFetchFailureMidBlockIsDeferred(t *testing.T) {
	// A block that runs off the end of text fails only when reached.
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	addi t0, t0, 1
	addi t0, t0, 2
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 1<<40)
	if res.Reason != StopError {
		t.Fatalf("expected error after running off text, got %v", res.Reason)
	}
	if cpu.X[isa.RegT0] != 3 {
		t.Errorf("instructions before the bad fetch should run: t0=%d", cpu.X[isa.RegT0])
	}
}

func TestFCVTAndFMinMax(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	fli  f0, -3.5
	fli  f1, 2.0
	fmin f2, f0, f1
	fmax f3, f0, f1
	fcvt.l.d a0, f0      ; -3
	li   t0, -9
	fcvt.d.l f4, t0      ; -9.0
	fmv.x.d a1, f4
	fmv.d.x f5, a1
	feq  a2, f4, f5
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	if res := e.Exec(cpu, 1<<40); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if cpu.F[2] != -3.5 || cpu.F[3] != 2.0 {
		t.Errorf("fmin/fmax: %v %v", cpu.F[2], cpu.F[3])
	}
	if int64(cpu.X[isa.RegA0]) != -3 {
		t.Errorf("fcvt.l.d = %d", int64(cpu.X[isa.RegA0]))
	}
	if cpu.F[4] != -9 || cpu.X[isa.RegA2] != 1 {
		t.Errorf("convert roundtrip: %v eq=%d", cpu.F[4], cpu.X[isa.RegA2])
	}
}

func TestAMOFaultsWhenPageAbsent(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li t0, 0x80000
	li a1, 1
	amoadd a0, a1, (t0)
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 1<<40)
	if res.Reason != StopPageFault || !res.Fault.Write {
		t.Fatalf("expected write fault: %+v", res)
	}
	space.SetPerm(res.Fault.Page, mem.PermReadWrite)
	if res = e.Exec(cpu, 1<<40); res.Reason != StopHalt {
		t.Fatalf("after grant: %+v", res)
	}
}

func TestDisasmEveryDecodedForm(t *testing.T) {
	// Every valid opcode's zero-operand instruction must render something.
	for op := isa.OpInvalid + 1; ; op++ {
		if !op.Valid() {
			break
		}
		ins := isa.Instruction{Op: op}
		if ins.Disasm() == "" {
			t.Errorf("%v renders empty", op)
		}
	}
}
