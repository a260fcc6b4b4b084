package tcg

import (
	"math"
	"strings"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/image"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// run assembles src, loads it with full permissions, and executes until a
// non-budget stop (or the budget cap in total).
func run(t *testing.T, src string) (*Engine, *CPU, Result) {
	t.Helper()
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return runImage(t, im)
}

func runImage(t *testing.T, im *image.Image) (*Engine, *CPU, Result) {
	t.Helper()
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	// A small stack and a scratch region at 0x20000.
	for p := uint64(0x3f000); p < 0x40000; p += uint64(space.PageSize()) {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	for p := uint64(0x20000); p < 0x22000; p += uint64(space.PageSize()) {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	cpu.X[isa.RegSP] = 0x40000
	var res Result
	for i := 0; i < 1000; i++ {
		res = e.Exec(cpu, 10_000_000)
		if res.Reason != StopBudget {
			return e, cpu, res
		}
	}
	t.Fatalf("program did not stop: %+v", res)
	return nil, nil, Result{}
}

func TestArithmetic(t *testing.T) {
	_, cpu, res := run(t, `
_start:
	li  a0, 6
	li  a1, 7
	mul a2, a0, a1      ; 42
	li  a3, -10
	div a4, a3, a0      ; -1
	rem a5, a3, a0      ; -4
	sub a6, a0, a1      ; -1
	sltu a7, a0, a1     ; 1
	slt  s0, a3, a0     ; 1
	halt
`)
	if res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	checks := map[uint8]int64{
		isa.RegA2: 42,
		isa.RegA4: -1,
		isa.RegA5: -4,
		isa.RegA6: -1,
		isa.RegA7: 1,
		isa.RegS0: 1,
	}
	for r, want := range checks {
		if int64(cpu.X[r]) != want {
			t.Errorf("x%d = %d, want %d", r, int64(cpu.X[r]), want)
		}
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	li   a0, 5
	li   a1, 0
	div  a2, a0, a1      ; -1
	rem  a3, a0, a1      ; 5
	divu a4, a0, a1      ; all ones
	remu a5, a0, a1      ; 5
	lid  t0, 0x8000000000000000
	li   t1, -1
	div  a6, t0, t1      ; INT64_MIN
	rem  a7, t0, t1      ; 0
	halt
`)
	if int64(cpu.X[isa.RegA2]) != -1 || cpu.X[isa.RegA3] != 5 {
		t.Errorf("div/rem by zero: %#x %#x", cpu.X[isa.RegA2], cpu.X[isa.RegA3])
	}
	if cpu.X[isa.RegA4] != ^uint64(0) || cpu.X[isa.RegA5] != 5 {
		t.Errorf("divu/remu by zero: %#x %#x", cpu.X[isa.RegA4], cpu.X[isa.RegA5])
	}
	if cpu.X[isa.RegA6] != 1<<63 || cpu.X[isa.RegA7] != 0 {
		t.Errorf("overflow: %#x %#x", cpu.X[isa.RegA6], cpu.X[isa.RegA7])
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	li   zero, 99
	addi zero, zero, 5
	add  a0, zero, zero
	halt
`)
	if cpu.X[0] != 0 || cpu.X[isa.RegA0] != 0 {
		t.Errorf("x0 = %d, a0 = %d", cpu.X[0], cpu.X[isa.RegA0])
	}
}

func TestLoopAndBranches(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	li  t0, 100
	li  a0, 0
1:	add a0, a0, t0
	addi t0, t0, -1
	bnez t0, 1b
	halt
`)
	if cpu.X[isa.RegA0] != 5050 {
		t.Errorf("sum = %d, want 5050", cpu.X[isa.RegA0])
	}
}

func TestCallsAndStack(t *testing.T) {
	_, cpu, _ := run(t, `
; recursive factorial(10)
_start:
	li   a0, 10
	call fact
	halt
fact:
	li   t0, 2
	blt  a0, t0, base
	addi sp, sp, -16
	sd   ra, 8(sp)
	sd   a0, 0(sp)
	addi a0, a0, -1
	call fact
	ld   t1, 0(sp)
	mul  a0, a0, t1
	ld   ra, 8(sp)
	addi sp, sp, 16
	ret
base:
	li   a0, 1
	ret
`)
	if cpu.X[isa.RegA0] != 3628800 {
		t.Errorf("fact(10) = %d", cpu.X[isa.RegA0])
	}
}

func TestMemoryAndData(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	la  t0, arr
	ld  a0, 0(t0)
	lw  a1, 8(t0)      ; sign-extended -1
	lwu a2, 8(t0)      ; zero-extended
	lb  a3, 12(t0)     ; -128
	lbu a4, 12(t0)
	lh  a5, 14(t0)
	sd  a0, 16(t0)
	ld  a6, 16(t0)
	halt
	.data
arr:
	.quad 0x1234567890abcdef
	.word 0xffffffff
	.byte 0x80, 0
	.half 0x8000
	.quad 0
`)
	if cpu.X[isa.RegA0] != 0x1234567890abcdef {
		t.Errorf("ld = %#x", cpu.X[isa.RegA0])
	}
	if int64(cpu.X[isa.RegA1]) != -1 || cpu.X[isa.RegA2] != 0xffffffff {
		t.Errorf("lw/lwu = %#x/%#x", cpu.X[isa.RegA1], cpu.X[isa.RegA2])
	}
	if int64(cpu.X[isa.RegA3]) != -128 || cpu.X[isa.RegA4] != 0x80 {
		t.Errorf("lb/lbu = %#x/%#x", cpu.X[isa.RegA3], cpu.X[isa.RegA4])
	}
	if int64(cpu.X[isa.RegA5]) != -32768 {
		t.Errorf("lh = %#x", cpu.X[isa.RegA5])
	}
	if cpu.X[isa.RegA6] != cpu.X[isa.RegA0] {
		t.Errorf("store/load roundtrip = %#x", cpu.X[isa.RegA6])
	}
}

func TestFloatingPoint(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	fli  f0, 2.0
	fli  f1, 0.5
	fadd f2, f0, f1    ; 2.5
	fmul f3, f0, f0    ; 4.0
	fsqrt f4, f3       ; 2.0
	fdiv f5, f1, f0    ; 0.25
	fexp f6, f0        ; e^2
	fln  f7, f6        ; 2
	li   t0, 3
	fcvt.d.l f8, t0    ; 3.0
	fcvt.l.d a0, f2    ; 2 (truncate)
	feq  a1, f0, f4    ; 1
	flt  a2, f1, f0    ; 1
	fle  a3, f0, f1    ; 0
	fneg f9, f0
	fabs f10, f9
	fmv.x.d a4, f2
	halt
`)
	f := cpu.F
	if f[2] != 2.5 || f[3] != 4 || f[4] != 2 || f[5] != 0.25 {
		t.Errorf("fp: %v", f[:6])
	}
	if math.Abs(f[7]-2) > 1e-12 {
		t.Errorf("ln(exp(2)) = %v", f[7])
	}
	if f[8] != 3 || cpu.X[isa.RegA0] != 2 {
		t.Errorf("convert: %v %d", f[8], cpu.X[isa.RegA0])
	}
	if cpu.X[isa.RegA1] != 1 || cpu.X[isa.RegA2] != 1 || cpu.X[isa.RegA3] != 0 {
		t.Errorf("compare: %d %d %d", cpu.X[isa.RegA1], cpu.X[isa.RegA2], cpu.X[isa.RegA3])
	}
	if f[10] != 2 {
		t.Errorf("fabs(fneg(2)) = %v", f[10])
	}
	if math.Float64frombits(cpu.X[isa.RegA4]) != 2.5 {
		t.Errorf("fmv.x.d = %#x", cpu.X[isa.RegA4])
	}
}

func TestSyscallStop(t *testing.T) {
	e, cpu, res := run(t, `
_start:
	li a7, 93       ; exit
	li a0, 5
	svc 0
	halt
`)
	if res.Reason != StopSyscall {
		t.Fatalf("stop = %v", res.Reason)
	}
	if cpu.X[isa.RegA7] != 93 || cpu.X[isa.RegA0] != 5 {
		t.Errorf("syscall args: %d %d", cpu.X[isa.RegA7], cpu.X[isa.RegA0])
	}
	if e.Stats.Syscalls != 1 {
		t.Errorf("syscall count = %d", e.Stats.Syscalls)
	}
	// Resuming continues after the SVC.
	res = e.Exec(cpu, 1_000_000)
	if res.Reason != StopHalt {
		t.Errorf("after resume: %v", res.Reason)
	}
}

func TestHintHook(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	hint 7
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	var gotTID, gotGroup int64
	e.OnHint = func(tid, group int64) { gotTID, gotGroup = tid, group }
	cpu := &CPU{PC: im.Entry, TID: 42}
	res := e.Exec(cpu, 1_000_000)
	if res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if gotTID != 42 || gotGroup != 7 || cpu.HintGroup != 7 {
		t.Errorf("hint: tid=%d group=%d cpu=%d", gotTID, gotGroup, cpu.HintGroup)
	}
}

func TestPageFaultAndRestart(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li  t0, 0x100000
	li  a0, 77
	sd  a0, 0(t0)
	ld  a1, 0(t0)
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}

	res := e.Exec(cpu, 1_000_000)
	if res.Reason != StopPageFault || !res.Fault.Write || res.Fault.Addr != 0x100000 {
		t.Fatalf("expected write fault at 0x100000: %+v", res)
	}
	// Grant read-only: store faults again.
	space.SetPerm(res.Fault.Page, mem.PermRead)
	res = e.Exec(cpu, 1_000_000)
	if res.Reason != StopPageFault || !res.Fault.Write {
		t.Fatalf("expected write fault after RO grant: %+v", res)
	}
	// Grant RW: runs to completion.
	space.SetPerm(res.Fault.Page, mem.PermReadWrite)
	res = e.Exec(cpu, 1_000_000)
	if res.Reason != StopHalt {
		t.Fatalf("after grant: %+v", res)
	}
	if cpu.X[isa.RegA1] != 77 {
		t.Errorf("a1 = %d", cpu.X[isa.RegA1])
	}
	if e.Stats.Faults != 2 {
		t.Errorf("faults = %d", e.Stats.Faults)
	}
}

func TestLLSCSuccessAndConflict(t *testing.T) {
	src := `
_start:
	li  t0, 0x20000
	li  a1, 11
1:	ll  a0, (t0)
	sc  a2, a1, (t0)
	bnez a2, 1b
	ld  a3, 0(t0)
	halt
`
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 1_000_000)
	if res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if cpu.X[isa.RegA2] != 0 || cpu.X[isa.RegA3] != 11 {
		t.Errorf("sc result %d, value %d", cpu.X[isa.RegA2], cpu.X[isa.RegA3])
	}
}

func TestLLSCBrokenByOtherThreadStore(t *testing.T) {
	// Thread 1 does LL; thread 2 stores to the same address; thread 1's SC
	// must fail (the ABA defence of §4.4).
	space := mem.NewSpace(0)
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	table := e.Mon

	table.OnLL(1, 0x20000)
	if table.Empty() {
		t.Fatal("table should be non-empty after LL")
	}
	table.OnStore(2, 0x20000)
	if table.ValidateSC(1, 0x20000) {
		t.Error("SC should fail after conflicting store")
	}
	// Same-thread store does not break its own reservation.
	table.OnLL(1, 0x20008)
	table.OnStore(1, 0x20008)
	if !table.ValidateSC(1, 0x20008) {
		t.Error("SC should survive own store")
	}
}

func TestLLSCPageInvalidation(t *testing.T) {
	table := NewLLSCTable()
	table.OnLL(1, 0x20010)
	table.OnLL(2, 0x30010)
	table.InvalidatePage(0x20, 4096) // page 0x20 covers 0x20000-0x20fff
	if table.ValidateSC(1, 0x20010) {
		t.Error("SC should fail after page invalidation")
	}
	if !table.ValidateSC(2, 0x30010) {
		t.Error("unrelated reservation lost")
	}
	if table.FalseFailures != 1 {
		t.Errorf("false failures = %d", table.FalseFailures)
	}
}

func TestCASSemantics(t *testing.T) {
	_, cpu, _ := run(t, `
_start:
	li  t0, 0x20000+512
	li  a1, 100
	sd  a1, 0(t0)
	; successful CAS: expected=100 -> swap in 200
	li  a0, 100
	li  a2, 200
	cas a0, a2, (t0)   ; a0 = old (100)
	ld  a3, 0(t0)      ; 200
	; failing CAS: expected=100, actual=200 -> no swap
	li  a4, 100
	li  a5, 300
	cas a4, a5, (t0)   ; a4 = old (200)
	ld  a6, 0(t0)      ; still 200
	; amoadd
	li  a7, 5
	amoadd s0, a7, (t0) ; s0 = 200, mem = 205
	ld  s1, 0(t0)
	; amoswap
	li  s2, 9
	amoswap s3, s2, (t0) ; s3 = 205, mem = 9
	ld  s4, 0(t0)
	halt
`)
	x := cpu.X
	if x[isa.RegA0] != 100 || x[isa.RegA3] != 200 {
		t.Errorf("cas success: old=%d mem=%d", x[isa.RegA0], x[isa.RegA3])
	}
	if x[isa.RegA4] != 200 || x[isa.RegA6] != 200 {
		t.Errorf("cas fail: old=%d mem=%d", x[isa.RegA4], x[isa.RegA6])
	}
	if x[isa.RegS0] != 200 || x[isa.RegS0+1] != 205 {
		t.Errorf("amoadd: %d %d", x[isa.RegS0], x[isa.RegS0+1])
	}
	if x[isa.RegS0+3] != 205 || x[isa.RegS0+4] != 9 {
		t.Errorf("amoswap: %d %d", x[isa.RegS0+3], x[isa.RegS0+4])
	}
}

func TestAtomicNeedsWritePermission(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li  t0, 0x20000
	li  a0, 0
	li  a1, 1
	cas a0, a1, (t0)
	halt
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	space.InstallPage(space.PageOf(0x20000), nil, mem.PermRead) // shared copy only
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 1_000_000)
	if res.Reason != StopPageFault || !res.Fault.Write {
		t.Fatalf("CAS on shared page should write-fault: %+v", res)
	}
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	if res = e.Exec(cpu, 1_000_000); res.Reason != StopHalt {
		t.Fatalf("after upgrade: %+v", res)
	}
}

func TestMisalignedAtomicIsError(t *testing.T) {
	_, _, res := run(t, `
_start:
	li t0, 0x20001
	ll a0, (t0)
	halt
`)
	if res.Reason != StopError || res.Err == nil || !strings.Contains(res.Err.Error(), "misaligned") {
		t.Fatalf("expected misaligned-atomic error, got %+v", res)
	}
}

func TestBudgetStop(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
1:	addi t0, t0, 1
	j 1b
`})
	if err != nil {
		t.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	res := e.Exec(cpu, 10_000)
	if res.Reason != StopBudget {
		t.Fatalf("stop: %+v", res)
	}
	if res.TimeNs < 10_000 || res.TimeNs > 12_000 {
		t.Errorf("budget overshoot: %d", res.TimeNs)
	}
	before := cpu.X[isa.RegT0]
	res = e.Exec(cpu, 10_000)
	if res.Reason != StopBudget || cpu.X[isa.RegT0] <= before {
		t.Error("execution did not resume")
	}
}

func TestBadPCIsError(t *testing.T) {
	// A PC in a non-resident page is a coherence miss, not a hard error: the
	// page (and the code in it) may live on another node, so the engine
	// reports a read fault for the scheduler to serve.
	space := mem.NewSpace(0)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: 0xdead000, TID: 1}
	res := e.Exec(cpu, 1000)
	if res.Reason != StopPageFault {
		t.Fatalf("expected pagefault for non-resident PC, got %v", res.Reason)
	}
	if res.Fault.Addr != 0xdead000 || res.Fault.Write {
		t.Fatalf("bad fault: %+v", res.Fault)
	}

	// Undecodable bytes in a page we do hold coherently are a hard error.
	garbage := mem.NewSpace(0)
	garbage.InstallPage(garbage.PageOf(0xdead000), make([]byte, garbage.PageSize()), mem.PermRead)
	e2 := NewEngine(garbage, DefaultCostModel())
	cpu2 := &CPU{PC: 0xdead000, TID: 1}
	res = e2.Exec(cpu2, 1000)
	if res.Reason != StopError {
		t.Fatalf("expected error for undecodable code, got %v", res.Reason)
	}

	// A resident page in I state is a stale home copy: fetching code from it
	// must fault so the protocol re-acquires a coherent copy.
	stale := mem.NewSpace(0)
	stale.InstallPage(stale.PageOf(0xdead000), make([]byte, stale.PageSize()), mem.PermNone)
	e3 := NewEngine(stale, DefaultCostModel())
	cpu3 := &CPU{PC: 0xdead000, TID: 1}
	res = e3.Exec(cpu3, 1000)
	if res.Reason != StopPageFault {
		t.Fatalf("expected pagefault for I-state code page, got %v", res.Reason)
	}
}

func TestTranslationCacheAndStats(t *testing.T) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	li t0, 1000
1:	addi t0, t0, -1
	bnez t0, 1b
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
	if e.Stats.Blocks == 0 || e.Stats.Blocks > 4 {
		t.Errorf("blocks = %d; loop should reuse cached blocks", e.Stats.Blocks)
	}
	if e.Stats.ExecInsns < 2000 {
		t.Errorf("exec insns = %d", e.Stats.ExecInsns)
	}
	if e.CacheSize() == 0 {
		t.Error("cache empty")
	}
	e.ClearCache()
	if e.CacheSize() != 0 {
		t.Error("cache not cleared")
	}
}

// The interpreter (NoCache: every block entry retranslates, so nothing is
// ever chained) and the cached, chained mode must produce identical guest
// state, and the cached mode must charge less translation time.
func TestNoCacheNoChainEquivalence(t *testing.T) {
	src := `
_start:
	li  t0, 50
	li  a0, 0
1:	add a0, a0, t0
	addi t0, t0, -1
	bnez t0, 1b
	halt
`
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	runMode := func(noCache bool) (*CPU, *Engine) {
		space := mem.NewSpace(0)
		mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
		e := NewEngine(space, DefaultCostModel())
		e.NoCache = noCache
		cpu := &CPU{PC: im.Entry, TID: 1}
		if res := e.Exec(cpu, 1<<40); res.Reason != StopHalt {
			t.Fatalf("NoCache=%v: %+v", noCache, res)
		}
		return cpu, e
	}
	base, be := runMode(false)
	interp, ie := runMode(true)
	if base.X != interp.X {
		t.Error("register state differs between cached and interpreter modes")
	}
	if ie.Stats.TranslateNs <= be.Stats.TranslateNs {
		t.Errorf("interpreter should charge more translation time: %d vs %d",
			ie.Stats.TranslateNs, be.Stats.TranslateNs)
	}
}

func BenchmarkExecLoop(b *testing.B) {
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: `
_start:
	lid t0, 0x7fffffffffffffff
1:	addi t0, t0, -1
	bnez t0, 1b
	halt
`})
	if err != nil {
		b.Fatal(err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	e.Exec(cpu, 1000) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Exec(cpu, 100_000) // ~20k instructions per call
	}
	b.ReportMetric(float64(e.Stats.ExecInsns)/float64(b.Elapsed().Seconds())/1e6, "Minsn/s")
}
