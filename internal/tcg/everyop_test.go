package tcg

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// TestEveryOpEveryExecutor runs one generated guest program — a hot loop per
// op of isa's table, then a loop per shape the closure compiler specialises —
// on the interpreter, on cached blocks and on compiled traces (also under
// -verify, and all of them again with a sanitizer hook recording), and wants
// registers, memory, every stop and every hook call bit-identical. It then
// reads the compiled engine back and wants every guest op, every uop kind and
// every surviving compile path to have been compiled at least once: an op
// added to the table without an executor arm, a lowering row or a closure
// fails here by name, and no closure ships unexecuted.
func TestEveryOpEveryExecutor(t *testing.T) {
	src := everyOpProgram(t)
	rungs := []struct {
		name string
		tune func(*Engine)
	}{
		{"interp", func(e *Engine) { e.NoCache, e.NoSuperblock = true, true }},
		{"blocks", func(e *Engine) { e.NoSuperblock = true }},
		{"compiled", func(*Engine) {}},
		{"verified", func(e *Engine) { e.Verify = true }},
	}
	for _, san := range []bool{false, true} {
		var want *everyOpOutcome
		for _, r := range rungs {
			name := fmt.Sprintf("%s/san=%v", r.name, san)
			got, e := runEveryOp(t, name, src, r.tune, san)
			switch r.name {
			case "interp", "blocks":
				if e.Stats.Tier3Insns != 0 {
					t.Errorf("%s: ran compiled traces", name)
				}
			case "verified":
				if e.Stats.VerifyDemotions != 0 || e.Stats.Tier3CheckFailures != 0 ||
					e.Stats.VerifiedTier3 != e.Stats.Tier3Superblocks || e.Stats.VerifiedSuperblocks != e.Stats.Superblocks {
					t.Errorf("%s: -verify not clean: %+v", name, e.Stats)
				}
				fallthrough
			case "compiled":
				checkEveryOpCoverage(t, name, e, got.compiled, san)
				checkFaultSites(t, name, got, san)
			}
			if want == nil {
				want = got
				continue
			}
			want.diff(t, name, got)
		}
	}
}

// Memory map of the program: data it reads and writes freely, and pages the
// harness revokes before the second and third pass so that each faults once
// per pass at the one site that touches it, in code compiled by then.
const (
	eoData     = 0x20000 // two pages; the straddling accesses sit on their seam
	eoFaultRun = 0x30000 // fourth access of a run of six
	eoFaultLd  = 0x31000 // a narrow load
	eoFaultSt  = 0x32000 // a narrow store
	eoFaultLL  = 0x33000 // an LL
	eoFaultCAS = 0x34000 // read-only on later passes: LL succeeds, the CAS probe faults
	eoPasses   = 3
	eoIters    = 64 // per loop: past the promotion threshold and the bias minimum
)

var eoFaultPages = []uint64{eoFaultRun, eoFaultLd, eoFaultSt, eoFaultLL, eoFaultCAS}

// everyOpOutcome is everything architecturally visible about a run.
type everyOpOutcome struct {
	x     [32]uint64
	f     [32]uint64
	pc    uint64
	mem   map[uint64][]byte
	stops []string // every non-budget stop, in order
	hooks []string // every hint and sanitizer call, in order
	insns uint64

	// Not compared: where each page fault left PC, and what was compiled.
	faultPCs []uint64
	compiled []compiledStream
}

func (w *everyOpOutcome) diff(t *testing.T, name string, g *everyOpOutcome) {
	t.Helper()
	if g.x != w.x || g.f != w.f || g.pc != w.pc {
		t.Errorf("%s: registers diverged from the interpreter:\n got pc=%#x x=%x f=%x\nwant pc=%#x x=%x f=%x",
			name, g.pc, g.x, g.f, w.pc, w.x, w.f)
	}
	if g.insns != w.insns {
		t.Errorf("%s: retired %d instructions, interpreter %d", name, g.insns, w.insns)
	}
	for page, wb := range w.mem {
		if string(g.mem[page]) != string(wb) {
			t.Errorf("%s: memory page %#x diverged from the interpreter", name, page)
		}
	}
	for _, l := range []struct {
		what      string
		got, want []string
	}{{"stop", g.stops, w.stops}, {"hook call", g.hooks, w.hooks}} {
		if len(l.got) != len(l.want) {
			t.Errorf("%s: %d %ss, interpreter %d", name, len(l.got), l.what, len(l.want))
		}
		for i := 0; i < len(l.got) && i < len(l.want); i++ {
			if l.got[i] != l.want[i] {
				t.Errorf("%s: %s %d is %q, interpreter %q", name, l.what, i, l.got[i], l.want[i])
				break
			}
		}
	}
}

// recSan records the sanitizer calls an executor makes.
type recSan struct{ log *[]string }

func (s recSan) OnLoad(tid int64, taddr uint64, size int, pc uint64) {
	*s.log = append(*s.log, fmt.Sprintf("load %#x/%d @%#x", taddr, size, pc))
}
func (s recSan) OnStore(tid int64, taddr uint64, size int, pc uint64) {
	*s.log = append(*s.log, fmt.Sprintf("store %#x/%d @%#x", taddr, size, pc))
}
func (s recSan) OnAtomic(tid int64, taddr uint64, size int, pc uint64, release bool) {
	*s.log = append(*s.log, fmt.Sprintf("atomic %#x/%d @%#x rel=%v", taddr, size, pc, release))
}
func (s recSan) OnFence(tid int64)                                      { *s.log = append(*s.log, "fence") }
func (recSan) LintBlock([]isa.Instruction, []uint64, func(uint64) bool) {}

// runEveryOp runs the program eoPasses times on one engine, resuming after
// every stop the way a node would: a syscall returns a value, a fault is
// served by granting the page, an ebreak, a misaligned atomic or a halt that
// is not the program's last instruction is stepped over.
func runEveryOp(t *testing.T, name, src string, tune func(*Engine), san bool) (*everyOpOutcome, *Engine) {
	t.Helper()
	space, e, cpu, im := setupImage(t, src)
	text, _ := im.Text()
	textEnd := text.Addr + uint64(len(text.Data))
	if textEnd > eoData {
		t.Fatalf("program text reaches %#x, into its data", textEnd)
	}
	for _, p := range eoFaultPages {
		space.SetPerm(space.PageOf(p), mem.PermReadWrite)
	}
	e.HotThreshold = 10 // above the bias minimum, so a biased branch is followed
	out := &everyOpOutcome{mem: map[uint64][]byte{}}
	e.OnHint = func(tid, group int64) { out.hooks = append(out.hooks, fmt.Sprintf("hint %d", group)) }
	if san {
		e.San = recSan{&out.hooks}
	}
	tune(e)
	compiled := recordCompiles(e)
	for pass := 0; pass < eoPasses; pass++ {
		*cpu = CPU{PC: im.Entry, TID: 1}
		cpu.X[isa.RegSP] = 0x40000
		// Sanitizer probes of a compiled trace precede the access, so a
		// faulting access reports twice where the interpreter reports once:
		// the recording runs stay fault-free.
		if pass > 0 && !san {
			for _, p := range eoFaultPages {
				perm := mem.PermNone
				if p == eoFaultCAS {
					perm = mem.PermRead
				}
				space.SetPerm(space.PageOf(p), perm)
			}
		}
	run:
		for steps := 0; ; steps++ {
			if steps == 1_000_000 {
				t.Fatalf("%s: pass %d did not halt", name, pass)
			}
			// Small quanta, so traces are left and re-entered at budget
			// boundaries the way the scheduler's quanta would cut them.
			res := e.Exec(cpu, 1_500)
			if res.Reason == StopBudget {
				continue
			}
			stop := fmt.Sprintf("pass %d: %s at %#x", pass, res.Reason, cpu.PC)
			switch res.Reason {
			case StopHalt:
				if cpu.PC == textEnd { // the program's last instruction
					out.stops = append(out.stops, stop)
					break run
				}
			case StopSyscall:
				cpu.X[isa.RegA0] = cpu.X[isa.RegA7] * 3
			case StopEBreak:
				cpu.PC += 4
			case StopPageFault:
				stop += fmt.Sprintf(" %+v", res.Fault)
				out.faultPCs = append(out.faultPCs, cpu.PC)
				space.SetPerm(res.Fault.Page, mem.PermReadWrite)
			case StopError:
				if !strings.Contains(res.Err.Error(), "misaligned atomic") {
					t.Fatalf("%s: %s: %v", name, stop, res.Err)
				}
				stop += " " + res.Err.Error()
				cpu.PC += 4
			}
			out.stops = append(out.stops, stop)
		}
	}
	out.x, out.pc, out.insns, out.compiled = cpu.X, cpu.PC, e.Stats.ExecInsns, *compiled
	for i, f := range cpu.F {
		out.f[i] = math.Float64bits(f) // NaNs must compare equal to themselves
	}
	for _, p := range append([]uint64{eoData, eoData + 0x1000, 0x3f000}, eoFaultPages...) {
		out.mem[p] = append([]byte(nil), space.PageData(space.PageOf(p))...)
	}
	return out, e
}

// everyOpProgram generates the program. The first half ranges over isa's
// table: the operands of each op come from its shape, so a new op of a known
// shape is covered the day it is added, and one this generator cannot place
// stops the test by name.
func everyOpProgram(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	emit := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	nloop := 0
	// loop emits body inside a counted loop of eoIters iterations. s1 counts;
	// t0 and t1 are operands that change every iteration and pass through
	// zero, small negatives and full-width values; f0 and f1 follow them.
	loop := func(body func(l string)) {
		nloop++
		l := fmt.Sprintf("L%d", nloop)
		emit("\tli   s1, 0")
		emit("%s:", l)
		emit("\tmul  t0, s1, s5")
		emit("\taddi t1, s1, -7")
		body(l)
		emit("\taddi s1, s1, 1")
		emit("\tblt  s1, s2, %s", l)
	}
	emit("_start:")
	emit("\tli   s0, 0") // checksum of every result
	emit("\tli   s2, %d", eoIters)
	emit("\tli   s3, %#x", eoData)
	emit("\tlid  s5, 0x9e3779b97f4a7c15")

	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		if (isa.Instruction{Op: op}).IsBranch() {
			continue // each has a loop of its own below
		}
		shape := op.Shape()
		for _, rd := range []string{"t2", "zero"} {
			if rd == "zero" && !strings.Contains(shape, "d") {
				continue
			}
			var operands []string
			for _, kind := range []byte(shape) {
				operand, ok := map[byte]string{
					'd': rd, 's': "t0", 't': "t1", 'D': "f2", 'S': "f0", 'T': "f1",
					'm': "0(s3)", 'a': "(s3)", 'i': "13", 'c': "5", 'f': "-2.75",
				}[kind]
				if !ok {
					t.Fatalf("%s: operand kind %q of shape %q has no place in the generated program", op, kind, shape)
				}
				operands = append(operands, operand)
			}
			loop(func(string) {
				emit("\tfcvt.d.l f0, t0")
				emit("\tfcvt.d.l f1, t1")
				emit("\tsd   t0, 0(s3)")
				if shape == "dta" {
					emit("\tll   t2, 0(s3)") // so an sc can succeed and a cas compare equal
				}
				emit("\t%s %s", op, strings.Join(operands, ", "))
				if strings.Contains(shape, "D") {
					emit("\tfmv.x.d t2, f2")
				}
				emit("\tld   t3, 0(s3)")
				emit("\txor  s0, s0, t2")
				emit("\txor  s0, s0, t3")
			})
		}
	}

	// Memory shapes. The planner folds an addi into the access after it, or
	// else into the access before it, so each folded addi below follows
	// something that is neither. Narrow accesses first: bare, with an addi
	// before, after and on both sides.
	loop(func(string) {
		emit("\tsd   t0, 16(s3)")
		emit("\txor  s0, s0, t1")
		emit("\taddi t4, s3, 8")
		emit("\taddi t4, t4, 8") // folds into the addi above: together the lw's pre
		emit("\tlw   t2, 0(t4)")
		emit("\taddi t4, t4, 4") // and its post
		emit("\txor  s0, s0, t2")
		emit("\tlhu  t3, 0(t4)") // bare
		emit("\txor  s0, s0, t3")
		emit("\taddi t5, s3, 16") // pre only
		emit("\tlh   t2, 2(t5)")
		emit("\txor  s0, s0, t2")
		emit("\tlb   t3, 5(t5)")
		emit("\taddi t5, t5, 32") // post only
		emit("\txor  s0, s0, t3")
		emit("\taddi t5, t5, 8") // pre only
		emit("\tsh   t0, 0(t5)")
		emit("\txor  s0, s0, t0")
		emit("\tsb   t1, 3(t5)")
		emit("\taddi t5, t5, 8") // post only
		emit("\txor  s0, s0, t1")
		emit("\taddi t5, t5, 8")
		emit("\tsw   t0, 0(t5)") // both
		emit("\taddi t5, t5, -16")
		emit("\txor  s0, s0, t0")
		emit("\tsw   t1, 4(t5)") // bare
		emit("\tld   t3, 0(t5)")
		emit("\txor  s0, s0, t3")
	})
	// Runs of one to six 8-byte accesses, integer and FP by turns, an addi
	// folded into the first from before and into the last from behind.
	for n := 1; n <= t3MemRun; n++ {
		loop(func(string) {
			emit("\tfcvt.d.l f0, t0")
			emit("\taddi t4, s3, %d", 128*n)
			for k := 0; k < n; k++ {
				emit("\t%s, %d(t4)", []string{"sd   t0", "ld   t2", "fsd  f0", "fld  f2"}[k%4], 8*(k/2))
			}
			emit("\taddi t4, t4, 8")
			emit("\tfmv.x.d t3, f2")
			emit("\txor  s0, s0, t2")
			emit("\txor  s0, s0, t3")
		})
	}
	loop(func(string) { // runs of one with the addi on one side only; accesses on the page seam
		emit("\tfcvt.d.l f0, t1")
		emit("\taddi t4, s3, 64")
		emit("\tsd   t0, 0(t4)") // pre only
		emit("\txor  s0, s0, t1")
		emit("\tfld  f2, 0(t4)")
		emit("\taddi t4, t4, 8") // post only
		emit("\tfmv.x.d t2, f2")
		emit("\txor  s0, s0, t2")
		emit("\tli   t5, %#x", eoData+0xffc) // four bytes either side of the seam
		emit("\tsd   t0, 0(t5)")
		emit("\tld   t2, 0(t5)")
		emit("\txor  s0, s0, t2")
		emit("\tli   t5, %#x", eoData+0xffe)
		emit("\tsw   t1, 0(t5)")
		emit("\tlw   t2, 0(t5)")
		emit("\txor  s0, s0, t2")
	})
	loop(func(string) { // addi pair; addi folded into a mul
		emit("\taddi t4, t0, 3")
		emit("\taddi t5, t1, 5")
		emit("\txor  s0, s0, t4")
		emit("\taddi t4, t4, 1")
		emit("\tmul  t2, t4, t5")
		emit("\txor  s0, s0, t2")
	})

	// Control flow. The operands of a branch under test are selected without
	// branching (a branch before it would split the loop into blocks that each
	// see one outcome): pick leaves t3, t4 holding the first pair where t5 is
	// 0 and the second where it is 1.
	pairs := map[isa.Op][2][2]int{ // operands with the branch taken; not taken
		isa.OpBEQ: {{5, 5}, {5, 6}}, isa.OpBNE: {{5, 6}, {5, 5}},
		isa.OpBLT: {{-1, 1}, {1, -1}}, isa.OpBGE: {{1, -1}, {-1, 1}},
		isa.OpBLTU: {{1, -1}, {-1, 1}}, isa.OpBGEU: {{-1, 1}, {1, -1}},
	}
	pick := func(p0, p1 [2]int) {
		for i, r := range []string{"t3", "t4"} {
			emit("\tli   t6, %d", p1[i]-p0[i])
			emit("\tmul  t6, t6, t5")
			emit("\taddi %s, t6, %d", r, p0[i])
		}
	}
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		if op.Shape() != "stb" {
			continue
		}
		p, ok := pairs[op]
		if !ok {
			t.Fatalf("%s: a conditional branch the generated program has no operands for", op)
		}
		// A guard in each direction: the branch goes one way on every
		// iteration but the 38th, which leaves the trace through the guard.
		for dir := 0; dir < 2; dir++ {
			loop(func(l string) {
				emit("\taddi t5, s1, -37")
				emit("\tsltu t5, zero, t5")
				emit("\txori t5, t5, 1")
				pick(p[dir], p[1-dir])
				emit("\t%s  t3, t4, %s_taken", op, l)
				emit("\taddi s0, s0, 3")
				emit("%s_taken:", l)
				emit("\taddi s0, s0, 1")
			})
		}
		// Unbiased: taken on even iterations, so the trace ends in a branch exit.
		loop(func(l string) {
			emit("\tandi t5, s1, 1")
			pick(p[0], p[1])
			emit("\t%s  t3, t4, %s_taken", op, l)
			emit("\taddi s0, s0, 3")
			emit("%s_taken:", l)
			emit("\taddi s0, s0, 1")
		})
	}
	// Compare fused into the branch on its result: guard and exit, signed and
	// unsigned, taken at zero and at one.
	for _, cmp := range []string{"slt", "sltu"} {
		for _, br := range []string{"beqz", "bnez"} {
			loop(func(l string) { // biased: s1 < 50 until the last iterations
				emit("\tli   t4, 50")
				emit("\t%s  t3, s1, t4", cmp)
				emit("\t%s t3, %s_taken", br, l)
				emit("\taddi s0, s0, 3")
				emit("%s_taken:", l)
				emit("\txor  s0, s0, t3")
			})
			loop(func(l string) { // unbiased
				emit("\tandi t4, s1, 1")
				emit("\t%s  t3, zero, t4", cmp)
				emit("\t%s t3, %s_taken", br, l)
				emit("\taddi s0, s0, 3")
				emit("%s_taken:", l)
				emit("\txor  s0, s0, t3")
			})
		}
	}
	// Calls and returns: a followed jal, a jalr exit through the jump cache,
	// and a jalr whose target is 2 mod 4 (both low bits are cleared).
	loop(func(l string) {
		emit("\tjal  ra, %s_fn", l)
		emit("\tla   t4, %s_back", l)
		emit("\taddi t4, t4, 2")
		emit("\tjalr t5, t4, 0")
		emit("%s_fn:", l)
		emit("\taddi s0, s0, 7")
		emit("\tret")
		emit("%s_back:", l)
		emit("\txor  s0, s0, t5")
	})
	// A chain of jumps longer than a trace may span: followed links, then a
	// jal that ends the trace — once linking, once not.
	for _, link := range []string{"t4", "zero"} {
		loop(func(l string) {
			for k := 0; k <= MaxTraceBlocks; k++ {
				emit("\tjal  %s, %s_c%d", link, l, k)
				emit("\taddi s0, s0, 100") // skipped
				emit("%s_c%d:", l, k)
				emit("\taddi s0, s0, %d", k)
			}
		})
	}
	// A loop closed by a jump, so the back-edge is a tail of its own, and a
	// straight line longer than a trace may hold, which ends in a plain exit
	// and has segments cut into several chunks.
	nloop++
	emit("\tli   s1, 0")
	emit("L%d:", nloop)
	emit("\tbge  s1, s2, L%d_out", nloop)
	emit("\taddi s1, s1, 1")
	emit("\txor  s0, s0, s1")
	emit("\tj    L%d", nloop)
	emit("L%d_out:", nloop)
	loop(func(string) {
		for k := 0; k < MaxTraceInsns+MaxBlockInsns; k++ {
			emit("\t%s t2, t0, t1", []string{"add", "xor", "sub", "or"}[k%4])
			emit("\txor  s0, s0, t2")
		}
	})

	// System. Every iteration stops the quantum three times and is resumed by
	// the harness.
	loop(func(string) {
		emit("\tmv   a7, s1")
		emit("\tsvc")
		emit("\txor  s0, s0, a0")
		emit("\tebreak")
		emit("\thint 9")
		emit("\thalt") // not the last instruction: the harness runs on
	})
	// Atomics that lose: an sc without a reservation, a cas that compares
	// unequal (both yield the quantum), a misaligned ll.
	loop(func(string) {
		emit("\tsd   t0, 0(s3)")
		emit("\tsc   t2, t1, (s3)")
		emit("\txor  s0, s0, t2")
		emit("\taddi t2, t0, 1")
		emit("\tcas  t2, t1, (s3)")
		emit("\txor  s0, s0, t2")
		emit("\taddi t4, s3, 4")
		emit("\tll   t2, 0(t4)")
	})
	// Faults, from the second pass on: in a run of six, in the narrow
	// closures, in an ll and in the write probe of a cas.
	loop(func(string) {
		emit("\tli   t4, %#x", eoFaultRun)
		emit("\tsd   t0, 8(s3)")
		emit("\tsd   t1, 16(s3)")
		emit("\tld   t2, 8(s3)")
		emit("\tsd   t2, 0(t4)") // the faulting member
		emit("\tld   t3, 16(s3)")
		emit("\tsd   t3, 8(t4)")
		emit("\txor  s0, s0, t3")
		emit("\tli   t4, %#x", eoFaultLd)
		emit("\tlbu  t2, 1(t4)")
		emit("\txor  s0, s0, t2")
		emit("\tli   t4, %#x", eoFaultSt)
		emit("\tsw   t0, 4(t4)")
		emit("\tli   t4, %#x", eoFaultLL)
		emit("\tll   t2, 0(t4)")
		emit("\txor  s0, s0, t2")
		emit("\tli   t4, %#x", eoFaultCAS)
		emit("\tll   t2, 0(t4)")
		emit("\tcas  t2, t0, (t4)")
		emit("\txor  s0, s0, t2")
	})
	emit("\thalt")
	return b.String()
}

// checkEveryOpCoverage reads back what the engine compiled and installed:
// the streams the seams recorded, and the plan compileTier3 consumed
// (planTier3 is the one planner; the checker replans the same way).
func checkEveryOpCoverage(t *testing.T, name string, e *Engine, compiled []compiledStream, san bool) {
	t.Helper()
	ops := map[isa.Op]bool{}
	kinds := map[uopKind]bool{}
	paths := map[string]bool{}
	fuses := func(un t3unit) string {
		return fmt.Sprintf("pre=%v post=%v", un.pre >= 0, un.post >= 0)
	}
	for _, c := range compiled {
		sb, stream := c.sb, c.ops
		if sb.t3 == nil {
			continue
		}
		for i := range stream {
			u := &stream[i]
			kinds[u.kind] = true
			if ins, _, err := e.fetchInsn(u.pc); err == nil && u.selfInsns > 0 {
				ops[ins.Op] = true
			}
			switch u.kind {
			case uGuard:
				paths[fmt.Sprintf("guard %s expectTaken=%v", u.op, u.expectTaken)] = true
			case uBranchExit:
				paths[fmt.Sprintf("brexit %s", u.op)] = true
			case uFusedCmpGuard, uFusedCmpExit:
				paths[fmt.Sprintf("%s unsigned=%v", kindName(u.kind), u.cmpU)] = true
			case uJalExit:
				paths[fmt.Sprintf("jalexit link=%v", u.rd != 0)] = true
			case uAtomic:
				paths[fmt.Sprintf("atomic %s", u.op)] = true
			}
		}
		var plan t3plan
		if !planTier3(&plan, stream) {
			t.Fatalf("%s: installed trace at %#x does not plan", name, sb.entry)
		}
		paths[fmt.Sprintf("fuseLoop=%v", plan.fuseLoop)] = true
		for _, ch := range sb.t3.chunks {
			if ch.guard {
				paths["code-page guard"] = true
			}
		}
		for _, seg := range plan.segs {
			if len(seg.groups)+1 > t3ChunkOps {
				paths["segment cut into chunks"] = true
			}
			for gi, start := range seg.groups {
				end := len(seg.units)
				if gi+1 < len(seg.groups) {
					end = seg.groups[gi+1]
				}
				un := seg.units[start]
				u := &stream[un.op]
				switch {
				case pair8able(stream, un):
					for _, m := range seg.units[start:end] {
						paths[fmt.Sprintf("run of %d", end-start)] = true
						paths[fmt.Sprintf("run member %s", kindName(stream[m.op].kind))] = true
						if end-start == 1 || end-start == 2 || end-start == t3MemRun {
							paths[fmt.Sprintf("run of %d %s", end-start, fuses(m))] = true
						}
					}
				case u.kind == uLoad:
					paths[fmt.Sprintf("load size=%d signed=%v x0=%v", u.size, u.sh != 0, u.rd == 0)] = true
					paths["load "+fuses(un)] = true
				case u.kind == uStore:
					paths[fmt.Sprintf("store size=%d", u.size)] = true
					paths["store "+fuses(un)] = true
				case un.pair >= 0:
					paths["addi pair"] = true
				case un.pre >= 0:
					paths["addi+"+uopName(u)] = true
				}
			}
		}
	}

	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		if !ops[op] {
			t.Errorf("%s: no compiled trace holds a %s", name, op)
		}
	}
	for k := uopKind(0); int(k) < len(kindNames); k++ {
		if probe := k == uSanRead || k == uSanWrite; !kinds[k] && (!probe || san) {
			t.Errorf("%s: no compiled trace holds a %s uop", name, kindName(k))
		}
	}
	want := []string{
		"fuseLoop=true", "fuseLoop=false", "code-page guard", "segment cut into chunks",
		"addi pair", "addi+mul", "jalexit link=true", "jalexit link=false",
		"cmpguard unsigned=false", "cmpguard unsigned=true", "cmpexit unsigned=false", "cmpexit unsigned=true",
		"load size=1 signed=true x0=false", "load size=1 signed=false x0=false",
		"load size=2 signed=true x0=false", "load size=2 signed=false x0=false",
		"load size=4 signed=true x0=false", "load size=4 signed=false x0=false",
		"load size=8 signed=false x0=true", "load size=1 signed=true x0=true",
		"store size=1", "store size=2", "store size=4",
	}
	for _, fuse := range []string{"pre=false post=false", "pre=true post=false", "pre=false post=true", "pre=true post=true"} {
		want = append(want, "load "+fuse, "store "+fuse, "run of 1 "+fuse)
	}
	want = append(want, "run of 2 pre=true post=false", "run of 2 pre=false post=true",
		fmt.Sprintf("run of %d pre=true post=false", t3MemRun), fmt.Sprintf("run of %d pre=false post=true", t3MemRun))
	for n := 1; n <= t3MemRun; n++ {
		want = append(want, fmt.Sprintf("run of %d", n))
	}
	for _, k := range []uopKind{uLoad, uStore, uFLoad, uFStore} {
		want = append(want, "run member "+kindName(k))
	}
	for op := isa.OpInvalid + 1; op.Valid(); op++ {
		switch op.Shape() {
		case "stb":
			want = append(want, fmt.Sprintf("guard %s expectTaken=true", op),
				fmt.Sprintf("guard %s expectTaken=false", op), fmt.Sprintf("brexit %s", op))
		case "dta":
			want = append(want, fmt.Sprintf("atomic %s", op))
		}
	}
	want = append(want, "atomic ll")
	for _, p := range want {
		// Sanitizer probes sit between an access and its neighbours, so a
		// sanitized trace has no runs and no pre-addi: paths are judged on the
		// plain runs.
		if !san && !paths[p] {
			t.Errorf("%s: compile path never taken: %s", name, p)
		}
	}
}

// refundWalk is the walk a compiled trace made over its uop array at run
// time, on a fault at ops[i], before its closures captured the result at
// compile time (refundTail): the PC of ops[i], and the charge of the uops
// after it in its segment.
func refundWalk(ops []uop, i int) faultSite {
	s := faultSite{pc: ops[i].pc}
	for j := i + 1; j < len(ops); j++ {
		u := &ops[j]
		if u.insns != 0 {
			break
		}
		s.refundCost += u.selfCost
		s.refundInsns += uint32(u.selfInsns)
	}
	return s
}

// checkFaultSites holds every fault site the closures of every compiled trace
// captured to refundWalk over the stream they were compiled from, and wants
// every page fault the run took (none with a sanitizer recording) to have
// stopped at one of them.
func checkFaultSites(t *testing.T, name string, got *everyOpOutcome, san bool) {
	t.Helper()
	sites := map[uint64]bool{}
	for _, c := range got.compiled {
		for i, s := range c.sites {
			if want := refundWalk(c.ops, i); s != want {
				t.Errorf("%s: trace %#x, uop %d (%s): captured %+v, the run-time walk gives %+v",
					name, c.sb.entry, i, uopName(&c.ops[i]), s, want)
			}
			sites[s.pc] = true
		}
	}
	if want := len(eoFaultPages) * (eoPasses - 1); !san && len(got.faultPCs) != want {
		t.Errorf("%s: %d page faults, want %d: one per revoked page per pass after the first", name, len(got.faultPCs), want)
	}
	for _, pc := range got.faultPCs {
		if !sites[pc] {
			t.Errorf("%s: page fault at %#x, where no compiled closure captured a fault site", name, pc)
		}
	}
}
