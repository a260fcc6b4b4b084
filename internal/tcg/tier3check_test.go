package tcg

import (
	"strings"
	"testing"

	"dqemu/internal/isa"
)

// checkedLoop is the looping workload the checker tests compile.
const checkedLoop = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 300
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

// compiledTrace runs checkedLoop until a compiled trace exists and returns
// the engine, the superblock, the stream it was compiled from, and its
// compiled form.
func compiledTrace(t *testing.T) (*Engine, *superblock, []uop, *tier3) {
	t.Helper()
	var log *[]compiledStream
	_, e := tier3State(t, checkedLoop, func(e *Engine) { log = recordCompiles(e) })
	for _, c := range *log {
		if c.sb.t3 != nil {
			return e, c.sb, c.ops, c.sb.t3
		}
	}
	t.Fatal("no compiled trace produced")
	return nil, nil, nil, nil
}

// TestCheckTier3AcceptsRealCompilation: the structural checker must pass
// every compilation the real compiler produces.
func TestCheckTier3AcceptsRealCompilation(t *testing.T) {
	e, sb, ops, t3 := compiledTrace(t)
	if err := e.checkTier3(sb, ops, t3); err != nil {
		t.Fatalf("real compilation rejected: %v", err)
	}
}

// corrupted returns a copy of t3 with f applied to it.
func corrupted(t3 *tier3, f func(*tier3)) *tier3 {
	cp := *t3
	cp.chunks = append([]t3chunk(nil), t3.chunks...)
	f(&cp)
	return &cp
}

// TestCheckTier3RejectsCorruption corrupts one structural property at a
// time and requires the checker to catch each.
func TestCheckTier3RejectsCorruption(t *testing.T) {
	e, sb, ops, t3 := compiledTrace(t)

	mutate := func(name string, f func(*tier3), want string) {
		err := e.checkTier3(sb, ops, corrupted(t3, f))
		if err == nil {
			t.Errorf("%s: corruption passed the checker", name)
			return
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: diagnostic %q does not mention %q", name, err, want)
		}
	}

	mutate("wrong entry", func(c *tier3) { c.entry++ }, "entry")
	mutate("wrong generation", func(c *tier3) { c.gen++ }, "generation")
	mutate("overcharged head", func(c *tier3) { c.chunks[0].cost++ }, "charges")
	mutate("wrong insn count", func(c *tier3) { c.chunks[0].insns++ }, "charges")
	mutate("wrong resume pc", func(c *tier3) { c.chunks[0].pc += 4 }, "pc")
	mutate("spurious guard", func(c *tier3) { c.chunks[0].guard = !c.chunks[0].guard }, "guard")
	mutate("dead chunk", func(c *tier3) { c.chunks[0].fn = nil }, "no code")
	mutate("dropped chunk", func(c *tier3) { c.chunks = c.chunks[:len(c.chunks)-1] }, "chunk")
	mutate("extra chunk", func(c *tier3) { c.chunks = append(c.chunks, t3chunk{fn: t3adv}) }, "chunk")
}

// TestRefusedTraceStaysOnBlocks forces one checkTier3 rejection at a loop
// head: the trace must not be installed, the refusal must be sticky for the
// cache generation (one attempt, one diagnostic), the guest must finish on
// the block interpreter with the state of an undisturbed run, and a cache
// flush must clear the refusal.
func TestRefusedTraceStaysOnBlocks(t *testing.T) {
	want, _ := tier3State(t, checkedLoop, nil)

	_, e, cpu, im := setupImage(t, checkedLoop)
	e.Verify = true
	tier3Fails := 0
	e.OnVerifyFail = func(where string, entry uint64, err error) {
		if where != "tier3" || entry != im.Symbols["loop"] {
			t.Errorf("unexpected verification failure in %s at %#x: %v", where, entry, err)
		}
		tier3Fails++
	}
	// Warm the loop head on the block interpreter, short of promotion, so it
	// is cached and carries branch bias.
	for e.cache[im.Symbols["loop"]] == nil || e.cache[im.Symbols["loop"]].count < biasMinTotal {
		if res := e.Exec(cpu, 500); res.Reason != StopBudget {
			t.Fatalf("warm-up stopped: %+v", res)
		}
	}
	head := e.cache[im.Symbols["loop"]]

	// Promote by hand, overcharging the compilation's first chunk.
	var spent int64
	sb, ops := e.buildTrace(head, &spent)
	t3 := corrupted(e.compileTier3(sb, ops), func(c *tier3) { c.chunks[0].cost++ })
	if e.install(head, sb, ops, t3) || head.sb != nil {
		t.Fatal("a compilation the checker rejects was installed")
	}
	if tier3Fails != 1 || e.Stats.Tier3CheckFailures != 1 {
		t.Fatalf("%d diagnostics, %d check failures; want 1 and 1", tier3Fails, e.Stats.Tier3CheckFailures)
	}

	// The head is far past any threshold now; it must not be tried again.
	e.HotThreshold = 2
	traces := e.Stats.Superblocks
	if res := runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	if tier3Fails != 1 || e.Stats.Superblocks != traces {
		t.Errorf("refused head was attempted again: %d diagnostics, %d new traces",
			tier3Fails, e.Stats.Superblocks-traces)
	}
	if e.Stats.Tier3Insns != 0 {
		t.Errorf("%d instructions retired in compiled traces; the loop should have stayed on the block interpreter", e.Stats.Tier3Insns)
	}
	if cpu.X != want.X || cpu.PC != want.PC {
		t.Errorf("refused run diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v", cpu.PC, cpu.X, want.PC, want.X)
	}

	// A new cache generation has new blocks: the trace is attempted again,
	// and this time nothing corrupts it.
	e.ClearCache()
	cpu2 := &CPU{PC: im.Entry, TID: 1}
	cpu2.X[isa.RegSP] = 0x40000
	if res := runToStop(t, e, cpu2); res.Reason != StopHalt {
		t.Fatalf("rerun: %+v", res)
	}
	if e.Stats.Superblocks == traces || e.Stats.Tier3Insns == 0 || tier3Fails != 1 {
		t.Errorf("after ClearCache the loop was not compiled: %d new traces, %d compiled insns, %d diagnostics",
			e.Stats.Superblocks-traces, e.Stats.Tier3Insns, tier3Fails)
	}
	if cpu2.X != want.X || cpu2.PC != want.PC {
		t.Errorf("rerun diverged:\n got pc=%#x x=%v\nwant pc=%#x x=%v", cpu2.PC, cpu2.X, want.PC, want.X)
	}
}

// TestCheckSegPlanRejectsBadPlans exercises the plan validator directly on
// hand-corrupted fusion plans.
func TestCheckSegPlanRejectsBadPlans(t *testing.T) {
	ld := uop{kind: uLoad, rd: 3, rs1: 4, imm: 8, size: 8, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
	ops := []uop{
		alui(isa.OpADDI, 4, 4, 8),
		ld,
		alui(isa.OpADDI, 4, 4, 8),
		{kind: uExit, npc: 0x100, exit: 0, exit2: -1},
	}
	segmentize(ops)
	var plan t3plan
	if !planTier3(&plan, ops) {
		t.Fatal("plan failed on a trivial segment")
	}
	if err := checkSegPlan(ops, &plan.segs[0]); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	bad := plan.segs[0]
	bad.units = append([]t3unit(nil), bad.units...)
	bad.units[0].post = -1 // drop coverage of the trailing addi
	if err := checkSegPlan(ops, &bad); err == nil {
		t.Error("coverage gap passed the plan checker")
	}

	bad2 := plan.segs[0]
	bad2.units = []t3unit{{op: 1, pre: 0, post: 2, pair: -1}, {op: 2, pre: -1, post: -1, pair: -1}}
	if err := checkSegPlan(ops, &bad2); err == nil {
		t.Error("double coverage passed the plan checker")
	}

	bad3 := plan.segs[0]
	bad3.groups = []int{0, 0}
	if err := checkSegPlan(ops, &bad3); err == nil {
		t.Error("malformed groups passed the plan checker")
	}
}
