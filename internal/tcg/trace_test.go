package tcg

import (
	"math"
	"slices"
	"testing"

	"dqemu/internal/asm"
	"dqemu/internal/image"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// setupImage installs src with the standard test memory map and returns the
// pieces for tests that drive Exec manually.
func setupImage(t *testing.T, src string) (*mem.Space, *Engine, *CPU, *image.Image) {
	t.Helper()
	im, err := asm.Assemble(asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	space := mem.NewSpace(0)
	mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
	for p := uint64(0x3f000); p < 0x40000; p += uint64(space.PageSize()) {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	for p := uint64(0x20000); p < 0x22000; p += uint64(space.PageSize()) {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	e := NewEngine(space, DefaultCostModel())
	cpu := &CPU{PC: im.Entry, TID: 1}
	cpu.X[isa.RegSP] = 0x40000
	return space, e, cpu, im
}

// runToStop drives Exec until a non-budget stop.
func runToStop(t *testing.T, e *Engine, cpu *CPU) Result {
	t.Helper()
	var res Result
	for i := 0; i < 1000; i++ {
		res = e.Exec(cpu, 10_000_000)
		if res.Reason != StopBudget {
			return res
		}
	}
	t.Fatalf("program did not stop: %+v", res)
	return Result{}
}

// compiledStream is one promotion as the engine's test seams saw it: the
// trace, a copy of the stream it was compiled from, and every fault site its
// closures captured, by uop index.
type compiledStream struct {
	sb    *superblock
	ops   []uop
	sites map[int]faultSite
}

// recordCompiles makes e log every promotion it compiles.
func recordCompiles(e *Engine) *[]compiledStream {
	log := &[]compiledStream{}
	sites := map[int]faultSite{}
	e.sited = func(i int, s faultSite) { sites[i] = s }
	e.traced = func(sb *superblock, ops []uop) {
		*log = append(*log, compiledStream{sb, slices.Clone(ops), sites})
		sites = map[int]faultSite{}
	}
	return log
}

// TestFaultSitesMatchWalk: the fault site compileTier3's backward walk gives
// every load, store and atomic of every stream compiled from a cold_code
// program is the one a forward walk from the uop gives (refundWalk, the
// definition before the backward walk), and no other uop gets one; and that
// the walk is one pass per stream. The
// every-op programs hold the narrow accesses and the atomics to the same
// definition (checkFaultSites).
func TestFaultSitesMatchWalk(t *testing.T) {
	e, cpu := coldEngine(t, "cold30.mc", coldSource(1, 300, 15, 30))
	e.HotThreshold = 10 // promote every function, not only the hottest
	log := recordCompiles(e)
	// Sites asked for at falling indices are one walk; a rising one restarts it.
	sited, traced, last := e.sited, e.traced, math.MaxInt
	e.sited = func(i int, s faultSite) {
		if i >= last {
			t.Errorf("site of uop %d asked for after uop %d's: the walk restarts", i, last)
		}
		last = i
		sited(i, s)
	}
	e.traced = func(sb *superblock, ops []uop) {
		traced(sb, ops)
		last = math.MaxInt
	}
	runToExit(t, e, cpu)
	if len(*log) < 300 {
		t.Fatalf("%d traces compiled, want one per function at least", len(*log))
	}
	sites := 0
	for _, c := range *log {
		for i := range c.ops {
			s, ok := c.sites[i]
			switch c.ops[i].kind {
			case uLoad, uStore, uFLoad, uFStore, uAtomic:
				if !ok {
					t.Fatalf("trace %#x: uop %d (%s) has no fault site", c.sb.entry, i, uopName(&c.ops[i]))
				}
			default:
				if ok {
					t.Fatalf("trace %#x: uop %d (%s) has a fault site", c.sb.entry, i, uopName(&c.ops[i]))
				}
				continue
			}
			if want := refundWalk(c.ops, i); s != want {
				t.Fatalf("trace %#x: uop %d (%s): site %+v, the forward walk gives %+v",
					c.sb.entry, i, uopName(&c.ops[i]), s, want)
			}
			sites++
		}
	}
	t.Logf("%d sites in %d traces", sites, len(*log))
}

// hotLoop sums 0..n-1 with a biased backward branch and a compare+branch
// pair, so it exercises promotion, loop-back, and slt/bnez fusion.
const hotLoop = `
_start:
	li  s0, 0          ; sum
	li  s1, 0          ; i
	li  s2, 1000       ; n
loop:
	add s0, s0, s1
	addi s1, s1, 1
	slt t0, s1, s2
	bnez t0, loop
	halt
`

func TestSuperblockPromotionAndCorrectness(t *testing.T) {
	_, e, cpu, _ := setupImage(t, hotLoop)
	res := runToStop(t, e, cpu)
	if res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if got := int64(cpu.X[isa.RegS0]); got != 999*1000/2 {
		t.Errorf("sum = %d, want %d", got, 999*1000/2)
	}
	if e.Stats.Superblocks == 0 {
		t.Error("hot loop was never promoted to a compiled trace")
	}
	if e.Stats.Tier3Insns == 0 {
		t.Error("no instructions retired inside compiled traces")
	}
	if e.Stats.FusedUops == 0 {
		t.Error("slt+bnez pair was not fused")
	}
	if e.Stats.Tier3Insns >= e.Stats.ExecInsns {
		t.Errorf("Tier3Insns %d must be < ExecInsns %d",
			e.Stats.Tier3Insns, e.Stats.ExecInsns)
	}
}

func TestSuperblockMatchesBaselineState(t *testing.T) {
	// The same program must leave bit-identical registers and memory on
	// compiled traces, on chained blocks, and on the interpreter.
	src := `
_start:
	li  t0, 0x20000
	li  s0, 0
	li  s1, 0
	li  s2, 200
	fmovd f1, 1.5
	fmovd f2, 0.0
loop:
	mul t1, s1, s1
	add s0, s0, t1
	sd  s0, 0(t0)
	ld  t2, 0(t0)
	add s3, s3, t2
	fadd f2, f2, f1
	addi s1, s1, 1
	slt t3, s1, s2
	bnez t3, loop
	fcvt.l.d s4, f2
	halt
`
	type tier struct {
		name            string
		noSuper, interp bool
	}
	tiers := []tier{
		{"superblock", false, false},
		{"chained", true, false},
		{"interp", true, true},
	}
	var ref *CPU
	var refMem []byte
	for _, tr := range tiers {
		space, e, cpu, _ := setupImage(t, src)
		e.NoSuperblock, e.NoCache = tr.noSuper, tr.interp
		if res := runToStop(t, e, cpu); res.Reason != StopHalt {
			t.Fatalf("%s: stop %+v", tr.name, res)
		}
		buf := make([]byte, 64)
		if err := space.ReadBytes(0x20000, buf); err != nil {
			t.Fatalf("%s: read scratch: %v", tr.name, err)
		}
		if ref == nil {
			ref, refMem = cpu, buf
			continue
		}
		if *cpu != *ref {
			t.Errorf("%s: CPU state diverged:\n got %+v\nwant %+v", tr.name, cpu, ref)
		}
		for i := range buf {
			if buf[i] != refMem[i] {
				t.Errorf("%s: memory diverged at +%d: %d != %d", tr.name, i, buf[i], refMem[i])
				break
			}
		}
	}
}

func TestNoSuperblockReproducesSeedStats(t *testing.T) {
	// With promotion disabled no traces are built.
	_, e, cpu, _ := setupImage(t, hotLoop)
	e.NoSuperblock = true
	if res := runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if e.Stats.Superblocks != 0 || e.Stats.Tier3Insns != 0 {
		t.Errorf("ablated run left the block interpreter: %+v", e.Stats)
	}
	if got := int64(cpu.X[isa.RegS0]); got != 999*1000/2 {
		t.Errorf("sum = %d, want %d", got, 999*1000/2)
	}
}

func TestJumpCacheHitsOnReturns(t *testing.T) {
	// A function called in a loop returns through JALR; the return target
	// lookup should hit the jump cache almost every iteration.
	src := `
_start:
	li  s0, 0
	li  s1, 0
	li  s2, 300
loop:
	jal ra, addone
	addi s1, s1, 1
	blt s1, s2, loop
	halt
addone:
	addi s0, s0, 1
	ret
`
	_, e, cpu, _ := setupImage(t, src)
	if res := runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if cpu.X[isa.RegS0] != 300 {
		t.Errorf("s0 = %d, want 300", cpu.X[isa.RegS0])
	}
	if e.Stats.JumpCacheHits == 0 {
		t.Error("no jump-cache hits on a JALR-heavy loop")
	}
	if e.Stats.JumpCacheHits < e.Stats.JumpCacheMisses {
		t.Errorf("hits %d < misses %d; cache is not effective",
			e.Stats.JumpCacheHits, e.Stats.JumpCacheMisses)
	}
}

// TestJumpToZeroFaults: an empty jump-cache entry is all zeros, and PC 0
// indexes one. A hot loop's indirect call whose target turns 0 on the last
// iteration must reach lookup's fault, not the entry's nil block — on both
// executors, and again after a flush has emptied the cache. (The nop keeps
// the entry point, and with it every PC the program runs, off the page
// boundaries that share PC 0's slot.)
func TestJumpToZeroFaults(t *testing.T) {
	const src = `
	nop
_start:
	li   s1, 0
	li   s2, 200
	la   s3, fn
loop:
	addi s1, s1, 1
	slt  t0, s1, s2
	mul  t1, t0, s3
	jalr ra, t1, 0
fn:
	j    loop
`
	for _, compiled := range []bool{false, true} {
		_, e, cpu, im := setupImage(t, src)
		e.NoSuperblock = !compiled
		for _, flush := range []bool{false, true} {
			if flush {
				e.ClearCache()
				*cpu = CPU{PC: im.Entry, TID: 1}
			}
			if res := runToStop(t, e, cpu); res.Reason != StopPageFault || cpu.PC != 0 {
				t.Errorf("compiled=%v flush=%v: stop %+v at %#x, want a page fault at 0", compiled, flush, res, cpu.PC)
			}
		}
		if ran := e.Stats.Tier3Insns != 0; ran != compiled {
			t.Errorf("compiled=%v: %d instructions retired in compiled traces", compiled, e.Stats.Tier3Insns)
		}
	}
}

func TestSuperblockLoopRespectsBudget(t *testing.T) {
	// Once the loop runs inside one compiled trace, the back-edge must still
	// yield when the quantum is spent — bounded overshoot, no livelock.
	_, e, cpu, _ := setupImage(t, `
_start:
	li  s1, 0
	li  s2, 100000000
loop:
	addi s1, s1, 1
	blt s1, s2, loop
	halt
`)
	e.HotThreshold = 4
	for i := 0; i < 50; i++ {
		res := e.Exec(cpu, 10_000)
		if res.Reason != StopBudget {
			t.Fatalf("iteration %d: %+v", i, res)
		}
		if res.TimeNs > 13_000 {
			t.Fatalf("iteration %d: overshoot %d ns on a 10000 ns budget", i, res.TimeNs)
		}
	}
	if e.Stats.Superblocks == 0 {
		t.Fatal("loop was not promoted")
	}
}

func TestSuperblockSyscallExitState(t *testing.T) {
	// A syscall inside a hot loop must exit the superblock with PC past the
	// SVC and argument registers intact, every iteration.
	_, e, cpu, _ := setupImage(t, `
_start:
	li  s1, 0
	li  s2, 40
loop:
	li  a7, 64          ; write-like number, never dispatched here
	add a0, s1, x0
	svc 0
	addi s1, s1, 1
	blt s1, s2, loop
	halt
`)
	e.HotThreshold = 4
	syscalls := 0
	var res Result
	for i := 0; i < 2000; i++ {
		res = e.Exec(cpu, 10_000_000)
		if res.Reason == StopHalt {
			break
		}
		if res.Reason != StopSyscall {
			t.Fatalf("stop: %+v", res)
		}
		if cpu.X[isa.RegA7] != 64 || cpu.X[isa.RegA0] != uint64(syscalls) {
			t.Fatalf("syscall %d: a7=%d a0=%d", syscalls, cpu.X[isa.RegA7], cpu.X[isa.RegA0])
		}
		syscalls++
	}
	if res.Reason != StopHalt || syscalls != 40 {
		t.Fatalf("reason=%v syscalls=%d", res.Reason, syscalls)
	}
	if e.Stats.Superblocks == 0 {
		t.Error("loop was not promoted")
	}
}

func TestSuperblockFaultExitState(t *testing.T) {
	// A store fault inside a promoted trace must leave PC exactly at the
	// faulting store so execution can restart there after the grant.
	space, e, cpu, _ := setupImage(t, `
_start:
	li  t0, 0x20000
	li  s1, 0
	li  s2, 20000
loop:
	sd  s1, 0(t0)
	addi s1, s1, 1
	blt s1, s2, loop
	ld  a3, 0(t0)
	halt
`)
	e.HotThreshold = 4
	// Run some quanta so the loop is promoted mid-flight.
	for i := 0; i < 8; i++ {
		if res := e.Exec(cpu, 3_000); res.Reason != StopBudget {
			t.Fatalf("warmup stop: %+v", res)
		}
	}
	if e.Stats.Superblocks == 0 {
		t.Fatal("loop was not promoted during warmup")
	}
	// Revoke write permission: the next store must fault restartably.
	space.SetPerm(space.PageOf(0x20000), mem.PermRead)
	res := e.Exec(cpu, 10_000_000)
	if res.Reason != StopPageFault || !res.Fault.Write {
		t.Fatalf("expected write fault, got %+v", res)
	}
	ins, _, err := e.fetchInsn(cpu.PC)
	if err != nil || ins.Op != isa.OpSD {
		t.Fatalf("PC not at the faulting store: pc=%#x ins=%v err=%v", cpu.PC, ins, err)
	}
	insnsAtFault := e.Stats.ExecInsns
	// Re-grant and finish; the final state must be exact.
	space.SetPerm(space.PageOf(0x20000), mem.PermReadWrite)
	if res = runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("after grant: %+v", res)
	}
	if cpu.X[isa.RegA3] != 19999 {
		t.Errorf("a3 = %d, want 19999", cpu.X[isa.RegA3])
	}
	if e.Stats.ExecInsns <= insnsAtFault {
		t.Error("ExecInsns did not advance after restart")
	}
}

func TestSuperblockContendedAtomicExit(t *testing.T) {
	// A contended CAS inside a promoted trace ends the quantum with PC just
	// past the CAS, exactly like the block interpreter.
	space, e, cpu, _ := setupImage(t, `
_start:
	li  t0, 0x20000
	li  t1, 5
	sd  t1, 0(t0)
	li  s1, 0
	li  s2, 30
loop:
	li  a0, 99          ; wrong expected value -> CAS always fails
	li  a2, 7
	cas a0, a2, (t0)
	addi s1, s1, 1
	blt s1, s2, loop
	halt
`)
	_ = space
	e.HotThreshold = 4
	stops := 0
	var res Result
	for i := 0; i < 2000; i++ {
		res = e.Exec(cpu, 1<<40)
		if res.Reason == StopHalt {
			break
		}
		if res.Reason != StopBudget {
			t.Fatalf("stop: %+v", res)
		}
		if cpu.X[isa.RegA0] != 5 {
			t.Fatalf("CAS old value = %d, want 5", cpu.X[isa.RegA0])
		}
		// PC must be past the CAS: next decoded insn is the addi.
		ins, _, err := e.fetchInsn(cpu.PC)
		if err != nil || ins.Op != isa.OpADDI {
			t.Fatalf("PC not after CAS: ins=%v err=%v", ins, err)
		}
		stops++
	}
	if res.Reason != StopHalt || stops != 30 {
		t.Fatalf("reason=%v stops=%d", res.Reason, stops)
	}
	if e.Stats.Superblocks == 0 {
		t.Error("loop was not promoted")
	}
}

// findInsn scans forward from pc for the first instruction with the given
// op, returning its address.
func findInsn(t *testing.T, e *Engine, pc uint64, op isa.Op) uint64 {
	t.Helper()
	for i := 0; i < 200; i++ {
		ins, n, err := e.fetchInsn(pc)
		if err != nil {
			t.Fatalf("scan at %#x: %v", pc, err)
		}
		if ins.Op == op {
			return pc
		}
		pc += uint64(n)
	}
	t.Fatalf("no %v found", op)
	return 0
}

func TestClearCacheRetiresChainedBlocks(t *testing.T) {
	// A flush between Exec calls must retire already-chained blocks and
	// compiled traces. The loop body's ADDI is patched to HALT between two
	// quanta: the next quantum still runs the cached translation, and after
	// ClearCache the patched code must execute on the next iteration instead
	// of the stale chained loop.
	for _, tier := range []struct {
		name    string
		noSuper bool
	}{{"superblock", false}, {"blocks", true}} {
		t.Run(tier.name, func(t *testing.T) {
			// s0 is zeroed with add (not li: the assembler expands small li
			// into addi, which would confuse the patch-target scan below).
			space, e, cpu, im := setupImage(t, `
_start:
	add s0, x0, x0
loop:
	hint 7
	addi s0, s0, 1
	jal x0, loop
`)
			e.NoSuperblock = tier.noSuper
			e.HotThreshold = 4
			addiPC := findInsn(t, e, im.Entry, isa.OpADDI)
			halt, err := (isa.Instruction{Op: isa.OpHALT}).Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			quantum := func() {
				t.Helper()
				if res := e.Exec(cpu, 200); res.Reason != StopBudget {
					t.Fatalf("stop: %+v", res)
				}
			}
			for range 20 {
				quantum()
			}
			if head := e.cache[im.Symbols["loop"]]; head == nil || head.taken != head {
				t.Fatal("loop block was not chained to itself before the flush")
			}
			if !tier.noSuper && e.Stats.Superblocks == 0 {
				t.Fatal("loop was not promoted before the flush")
			}

			page := space.PageOf(addiPC)
			copy(space.PageData(page)[addiPC-space.PageAddr(page):], halt)
			s0 := cpu.X[isa.RegS0]
			quantum()
			if cpu.X[isa.RegS0] == s0 {
				t.Fatal("the cached translation did not run after the patch; the flush below proves nothing")
			}
			s0 = cpu.X[isa.RegS0]
			e.ClearCache()
			if res := e.Exec(cpu, 10_000); res.Reason != StopHalt {
				t.Fatalf("patched HALT did not execute in the quantum after the flush: %+v", res)
			}
			if got := cpu.X[isa.RegS0]; got != s0 {
				t.Errorf("s0 = %d after the flush, %d before it: the stale loop body ran", got, s0)
			}
			if e.Stats.Flushes != 1 {
				t.Errorf("flushes = %d, want 1", e.Stats.Flushes)
			}
		})
	}
}

func TestInvalidatePageFlushesOnlyCodePages(t *testing.T) {
	_, e, cpu, im := setupImage(t, hotLoop)
	if res := runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if e.CacheSize() == 0 {
		t.Fatal("no cached blocks")
	}
	// Invalidating a pure data page keeps all translations.
	e.InvalidatePage(e.Mem.PageOf(0x20000))
	if e.CacheSize() == 0 || e.Stats.Flushes != 0 {
		t.Errorf("data-page invalidation flushed the cache (flushes=%d)", e.Stats.Flushes)
	}
	// Invalidating the code page flushes everything.
	e.InvalidatePage(e.Mem.PageOf(im.Entry))
	if e.CacheSize() != 0 || e.Stats.Flushes != 1 {
		t.Errorf("code-page invalidation did not flush (size=%d flushes=%d)",
			e.CacheSize(), e.Stats.Flushes)
	}
	// The program still reruns correctly after the flush.
	cpu2 := &CPU{PC: im.Entry, TID: 1}
	cpu2.X[isa.RegSP] = 0x40000
	if res := runToStop(t, e, cpu2); res.Reason != StopHalt {
		t.Fatalf("rerun: %+v", res)
	}
	if got := int64(cpu2.X[isa.RegS0]); got != 999*1000/2 {
		t.Errorf("rerun sum = %d", got)
	}
}

func TestAddiChainFolding(t *testing.T) {
	// Adjacent same-register ADDIs inside a trace fold into one uop, and a
	// move bounced straight back (s0 -> t3 -> s0) into the move alone, but
	// must retire the same instruction count and value. A bounce through x0
	// is not one: it clears the register.
	_, e, cpu, _ := setupImage(t, `
_start:
	li  s1, 0
	li  s2, 400
	li  s4, 9
loop:
	addi s0, s0, 3
	addi s0, s0, 4
	addi t3, s0, 0
	addi s0, t3, 0
	addi x0, s4, 0
	addi s4, x0, 0
	addi s1, s1, 1
	blt s1, s2, loop
	halt
`)
	e.HotThreshold = 4
	res := runToStop(t, e, cpu)
	if res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if got := cpu.X[isa.RegS0]; got != 400*7 {
		t.Errorf("s0 = %d, want %d", got, 400*7)
	}
	if got := cpu.X[isa.RegS0+4]; got != 0 {
		t.Errorf("s4 = %d after a move from x0, want 0", got)
	}
	if e.Stats.FusedUops < 2 {
		t.Errorf("%d folds in the trace, want the ADDI chain and the bounced move", e.Stats.FusedUops)
	}
	// ExecInsns must count guest instructions, not uops: 3 lis (possibly
	// moviw) + 400 iterations of 8 instructions + halt.
	want := uint64(3 + 400*8 + 1)
	if e.Stats.ExecInsns != want {
		t.Errorf("ExecInsns = %d, want %d", e.Stats.ExecInsns, want)
	}
}
