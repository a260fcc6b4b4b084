package tcg

import (
	"testing"

	"dqemu/internal/mem"
)

// tier3State runs src under one rung of the translation ladder and returns
// the final architectural state plus the engine for stats inspection.
func tier3State(t *testing.T, src string, tune func(*Engine)) (*CPU, *Engine) {
	t.Helper()
	_, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2 // promote quickly so short test programs get compiled
	if tune != nil {
		tune(e)
	}
	// Small quantum slices, so traces are left and re-entered at budget
	// boundaries the way the scheduler's quanta would cut them.
	for i := 0; i < 1_000_000; i++ {
		res := e.Exec(cpu, 1_500)
		if res.Reason == StopHalt {
			return cpu, e
		}
		if res.Reason != StopBudget {
			t.Fatalf("stop: %+v", res)
		}
	}
	t.Fatalf("program did not halt")
	return nil, nil
}

// tier3Rungs is the three-way ladder the differential tests compare: the
// interpreter (no translation cache), cached and chained blocks, and compiled
// traces.
func tier3Rungs() map[string]func(*Engine) {
	return map[string]func(*Engine){
		"interp":   func(e *Engine) { e.NoCache, e.NoSuperblock = true, true },
		"blocks":   func(e *Engine) { e.NoSuperblock = true },
		"compiled": func(*Engine) {},
	}
}

// TestTier3MatchesBaselineState is the three-way differential: every rung of
// the ladder must leave bit-identical registers and PC on a workload that
// exercises ALU, memory, FP, and an indirect jump; the compiled rung must actually
// have executed closures rather than silently falling back, and the other
// two must not have.
func TestTier3MatchesBaselineState(t *testing.T) {
	const src = `
_start:
	li   s0, 0           ; checksum
	li   s1, 0           ; i
	li   s2, 400         ; iterations
	li   s3, 0x20000     ; scratch array base
	fmovd f2, 1.5
loop:
	; memory traffic: two stores, two loads through the same base
	sd   s1, 0(s3)
	sd   s0, 8(s3)
	ld   t0, 0(s3)
	ld   t1, 8(s3)
	add  s0, t0, t1
	fsd  f2, 16(s3)
	fld  f3, 16(s3)
	fadd f2, f3, f2
	; ALU mix with addi neighbours (fold and fusion food), among them a
	; move bounced through t3 and an addi of zero.
	addi t3, s0, 0
	addi s0, t3, 0
	addi s5, s5, 0
	addi t2, s0, 7
	andi t2, t2, 1023
	xor  s0, s0, t2
	; an indirect jump to a target that is 2 mod 4: jalr clears both low bits
	la   t4, landed
	addi t4, t4, 2
	jalr t5, t4, 0
landed:
	xor  s0, s0, t5
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
		cpu, e := tier3State(t, src, tune)
		states[name] = state{cpu.X, cpu.F, cpu.PC}
		switch name {
		case "compiled":
			if e.Stats.Tier3Superblocks == 0 || e.Stats.Tier3Insns == 0 {
				t.Errorf("%s: no compiled execution (traces=%d insns=%d)",
					name, e.Stats.Tier3Superblocks, e.Stats.Tier3Insns)
			}
		default:
			if e.Stats.Tier3Insns != 0 || e.Stats.Superblocks != 0 {
				t.Errorf("%s: unexpectedly ran compiled traces (%+v)", name, e.Stats)
			}
		}
		if e.Stats.SuperblockInsns != 0 {
			t.Errorf("%s: SuperblockInsns = %d; nothing writes it any more", name, e.Stats.SuperblockInsns)
		}
	}
	want := states["interp"]
	for name, got := range states {
		if got != want {
			t.Errorf("rung %s diverged from interpreter:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
				name, got.pc, got.x, want.pc, want.x)
		}
	}
}

// TestCompiledLoopInOneExec: a loop that closes inside its own trace never
// comes back through Exec's dispatch, so promotion must not depend on
// re-dispatch. Run to halt in a single Exec call under the default
// threshold, the loop must retire on compiled closures and end in the
// interpreter's state.
func TestCompiledLoopInOneExec(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 20000
	li   s3, 0x20000
loop:
	sd   s1, 0(s3)
	ld   t0, 0(s3)
	add  s0, s0, t0
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	halt
`
	_, ref, want, _ := setupImage(t, src)
	ref.NoCache, ref.NoSuperblock = true, true
	if res := ref.Exec(want, 1<<62); res.Reason != StopHalt {
		t.Fatalf("interpreter: %+v", res)
	}

	_, e, cpu, _ := setupImage(t, src)
	if res := e.Exec(cpu, 1<<62); res.Reason != StopHalt {
		t.Fatalf("one Exec call did not reach the halt: %+v", res)
	}
	if *cpu != *want {
		t.Errorf("state diverged from the interpreter:\n got %+v\nwant %+v", cpu, want)
	}
	if e.Stats.ExecInsns != ref.Stats.ExecInsns {
		t.Errorf("retired %d instructions, interpreter %d", e.Stats.ExecInsns, ref.Stats.ExecInsns)
	}
	if share := float64(e.Stats.Tier3Insns) / float64(e.Stats.ExecInsns); share <= 0.9 {
		t.Errorf("%.1f%% of %d instructions retired on compiled closures, want over 90%%",
			100*share, e.Stats.ExecInsns)
	}
}

// TestTier3MidRunInvalidationDemotes flushes the translation cache from a
// hint hook firing *inside* a compiled trace. The generation guard must
// demote to the block interpreter at the next instruction boundary (no
// stale closure may keep running), the loop must re-heat and re-promote
// afterwards, and the final state must match an undisturbed run exactly.
func TestTier3MidRunInvalidationDemotes(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 600
loop:
	hint 1
	add  s0, s0, s1
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	halt
`
	baseline, _ := tier3State(t, src, nil)

	_, eng, cpu, im := setupImage(t, src)
	eng.HotThreshold = 2
	codePage := eng.Mem.PageOf(eng.Mem.Translate(im.Entry))
	var hints, onBlocks int
	tracesAtFlush := ^uint64(0)
	eng.OnHint = func(tid, group int64) {
		hints++
		if eng.Stats.Superblocks == tracesAtFlush {
			// No trace has formed since the flush: the block interpreter
			// retired this hint.
			onBlocks++
		}
		if hints%200 == 0 {
			// Invalidate the page the loop's code lives on, as the
			// coherence layer would on a code-page migration.
			eng.InvalidatePage(codePage)
			tracesAtFlush = eng.Stats.Superblocks
		}
	}
	halted := false
	for i := 0; i < 1_000_000 && !halted; i++ {
		res := eng.Exec(cpu, 1_500)
		switch res.Reason {
		case StopHalt:
			halted = true
		case StopBudget:
		default:
			t.Fatalf("stop: %+v", res)
		}
	}
	if !halted {
		t.Fatalf("program did not halt")
	}
	if eng.Stats.Tier3Demotions == 0 {
		t.Fatalf("no demotions despite mid-run invalidation (stats %+v)", eng.Stats)
	}
	if eng.Stats.Flushes == 0 {
		t.Fatalf("invalidation did not flush the cache")
	}
	if onBlocks == 0 {
		t.Errorf("after a flush the loop never ran on the block interpreter")
	}
	if eng.Stats.Tier3Superblocks < 2 {
		t.Errorf("loop did not re-promote after the flush (compiled traces=%d)",
			eng.Stats.Tier3Superblocks)
	}
	if cpu.X != baseline.X || cpu.PC != baseline.PC {
		t.Errorf("mid-run invalidation changed final state:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
			cpu.PC, cpu.X, baseline.PC, baseline.X)
	}
}

// TestTier3ExecAllocs pins the steady-state allocation guarantee: once a
// loop is closure-compiled, re-entering it through Exec allocates nothing.
// (Compilation itself may allocate; only the run loop is under test.)
func TestTier3ExecAllocs(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s3, 0x20000
loop:
	sd   s1, 0(s3)
	ld   t0, 0(s3)
	add  s0, s0, t0
	addi s1, s1, 1
	j    loop
`
	_, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2
	// Heat: the loop head gets hot on the block interpreter and is compiled.
	for i := 0; i < 64; i++ {
		if res := e.Exec(cpu, 200_000); res.Reason != StopBudget {
			t.Fatalf("heat run stopped: %+v", res)
		}
	}
	if e.Stats.Tier3Insns == 0 {
		t.Fatalf("loop was never compiled (stats %+v)", e.Stats)
	}
	if n := testing.AllocsPerRun(100, func() {
		if res := e.Exec(cpu, 200_000); res.Reason != StopBudget {
			t.Fatalf("steady-state run stopped: %+v", res)
		}
	}); n != 0 {
		t.Errorf("steady-state compiled Exec allocates %v times per run, want 0", n)
	}
}

// TestTier3MemRunFaultRestart drives a fused memory run into a page fault on
// its *last* access and checks precise-restart semantics: the earlier
// accesses of the run (and their folded address updates) must have retired,
// the faulting PC must point at the faulting instruction, and after mapping
// the page the program must complete with the same state as a fault-free
// run.
func TestTier3MemRunFaultRestart(t *testing.T) {
	const src = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 5000
	li   s3, 0x20000
	li   s4, 0x3f000     ; second page, revoked below
loop:
	sd   s1, 0(s3)
	sd   s0, 8(s3)
	ld   t0, 0(s3)
	sd   t0, 0(s4)       ; faults once the page is revoked
	add  s0, s0, t0
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, loop
	halt
`
	// Fault-free baseline.
	baseline, _ := tier3State(t, src, nil)

	space, e, cpu, _ := setupImage(t, src)
	e.HotThreshold = 2
	// Heat until the loop is compiled, then revoke the second page mid-run.
	for i := 0; i < 30; i++ {
		if res := e.Exec(cpu, 1_500); res.Reason != StopBudget {
			t.Fatalf("heat run stopped: %+v", res)
		}
	}
	if e.Stats.Tier3Insns == 0 {
		t.Fatalf("loop was never compiled (stats %+v)", e.Stats)
	}
	faultPage := space.PageOf(0x3f000)
	space.SetPerm(faultPage, mem.PermNone)
	var res Result
	for i := 0; i < 1000; i++ {
		res = e.Exec(cpu, 100_000)
		if res.Reason == StopPageFault {
			break
		}
		if res.Reason != StopBudget {
			t.Fatalf("unexpected stop: %+v", res)
		}
	}
	if res.Reason != StopPageFault {
		t.Fatalf("revoked page never faulted")
	}
	if got := space.PageOf(space.Translate(res.Fault.Addr)); got != faultPage {
		t.Fatalf("fault addr %#x not on revoked page", res.Fault.Addr)
	}
	// The faulting PC must be the sd into the revoked page, and the fused
	// run's earlier accesses must already have retired: 0(s3) holds s1.
	var word [8]byte
	space.SetPerm(faultPage, mem.PermReadWrite)
	if err := space.ReadBytes(0x20000, word[:]); err != nil {
		t.Fatal(err)
	}
	if le := uint64(word[0]) | uint64(word[1])<<8 | uint64(word[2])<<16 | uint64(word[3])<<24 |
		uint64(word[4])<<32 | uint64(word[5])<<40 | uint64(word[6])<<48 | uint64(word[7])<<56; le != cpu.X[19] /* s1 */ {
		t.Errorf("earlier access of the fused run did not retire before the fault: mem %d, s1 %d",
			le, cpu.X[19] /* s1 */)
	}
	// Restore the page and finish; state must match the fault-free run.
	res = runToStop(t, e, cpu)
	if res.Reason != StopHalt {
		t.Fatalf("stop after restart: %+v", res)
	}
	if cpu.X != baseline.X || cpu.PC != baseline.PC {
		t.Errorf("fault-and-restart diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v",
			cpu.PC, cpu.X, baseline.PC, baseline.X)
	}
}
