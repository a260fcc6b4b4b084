package tcg

import (
	"strings"
	"testing"
)

// compiledTrace runs a looping workload until a tier-3 compilation exists
// and returns the engine, the superblock, and its compiled form.
func compiledTrace(t *testing.T) (*Engine, *superblock, *tier3) {
	t.Helper()
	const src = `
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
	_, e := tier3State(t, src, func(e *Engine) { e.Tier3Threshold = 2 })
	for _, b := range e.cache {
		if b.sb != nil && b.sb.t3 != nil {
			return e, b.sb, b.sb.t3
		}
	}
	t.Fatal("no tier-3 compilation produced")
	return nil, nil, nil
}

// TestCheckTier3AcceptsRealCompilation: the structural checker must pass
// every compilation the real compiler produces.
func TestCheckTier3AcceptsRealCompilation(t *testing.T) {
	e, sb, t3 := compiledTrace(t)
	if err := e.checkTier3(sb, t3); err != nil {
		t.Fatalf("real compilation rejected: %v", err)
	}
}

// TestCheckTier3RejectsCorruption corrupts one structural property at a
// time and requires the checker to catch each.
func TestCheckTier3RejectsCorruption(t *testing.T) {
	e, sb, t3 := compiledTrace(t)

	mutate := func(name string, f func(*tier3), want string) {
		cp := *t3
		cp.chunks = append([]t3chunk(nil), t3.chunks...)
		f(&cp)
		err := e.checkTier3(sb, &cp)
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

// TestCheckSegPlanRejectsBadPlans exercises the plan validator directly on
// hand-corrupted fusion plans.
func TestCheckSegPlanRejectsBadPlans(t *testing.T) {
	ld := uop{kind: uLoad, rd: 3, rs1: 4, imm: 8, size: 8, selfInsns: 1, selfCost: 1, exit: -1, exit2: -1}
	ops := []uop{
		alui(uAddi, 4, 4, 8),
		ld,
		alui(uAddi, 4, 4, 8),
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
