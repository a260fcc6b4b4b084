package tcg

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dqemu/internal/grt"
	"dqemu/internal/image"
	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// refTranslate is translate as it was before it read code a page span at a
// time: one fetchInsn — a permission probe and a byte-wise ReadBytes — per
// instruction — and before a block stopped keeping the address of each. The
// fetch differential holds translate to it.
func refTranslate(e *Engine, pc uint64) (b *block, pcs []uint64, err error) {
	b = &block{startPC: pc}
	cur := pc
	for len(b.ops) < MaxBlockInsns {
		ins, n, err := e.fetchInsn(cur)
		if err != nil {
			if len(b.ops) > 0 {
				break
			}
			return nil, nil, err
		}
		b.ops = append(b.ops, ins)
		pcs = append(pcs, cur)
		b.endPC = cur + uint64(n)
		if ins.IsBranch() {
			switch ins.Op {
			case isa.OpJAL:
				b.takenPC = cur + uint64(ins.Imm*4)
			case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU:
				b.takenPC = cur + uint64(ins.Imm*4)
				b.fallPC = cur + 4
			case isa.OpSVC:
				b.fallPC = cur + 4
			}
			break
		}
		cur += uint64(n)
	}
	if len(b.ops) == MaxBlockInsns && !b.ops[len(b.ops)-1].IsBranch() {
		last := len(b.ops) - 1
		b.fallPC = pcs[last] + uint64(b.ops[last].Size())
	}
	return b, pcs, nil
}

func encodeInsns(t testing.TB, insns ...isa.Instruction) []byte {
	t.Helper()
	var code []byte
	for _, ins := range insns {
		var err error
		if code, err = ins.Encode(code); err != nil {
			t.Fatal(err)
		}
	}
	return code
}

// coldImage is the shape of bench's cold_code input: funcs small
// straight-line functions, each called from main.
func coldImage(t testing.TB, funcs int) *image.Image {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "long f%d(long x) {\n\tlong a = x + %d;\n\tlong b = x ^ %d;\n", f, rng.Int63n(1<<40), rng.Intn(1<<12))
		for i := 0; i < 6; i++ {
			fmt.Fprintf(&sb, "\ta = a %c b;\n\tb = b + %d;\n", "+-*^&|"[rng.Intn(6)], 1+rng.Int63n(1<<uint(4+rng.Intn(40))))
		}
		sb.WriteString("\treturn a + b;\n}\n")
	}
	sb.WriteString("long main() {\n\tlong acc = 1;\n")
	for f := 0; f < funcs; f++ {
		fmt.Fprintf(&sb, "\tacc = f%d(acc);\n", f)
	}
	sb.WriteString("\treturn acc & 63;\n}\n")
	im, err := grt.BuildProgram("cold.mc", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// boundaryImage puts every long encoding at 4, 8 and 12 bytes before a page
// end (the last fits its page exactly, the others spill into the next), each
// in a page of NOPs of its own, and ends in HALT.
func boundaryImage(t testing.TB, pageSize int) *image.Image {
	t.Helper()
	nop := encodeInsns(t, isa.Instruction{Op: isa.OpNOP})
	var code []byte
	for _, ins := range []isa.Instruction{
		{Op: isa.OpMOVIW, Rd: 5, Imm: -7},
		{Op: isa.OpMOVID, Rd: 6, Imm: 0x1122334455667788},
		{Op: isa.OpFMOVD, Rd: 7, Imm: 0x3ff8000000000000},
	} {
		for _, before := range []int{4, 8, 12} {
			for len(code)%pageSize != pageSize-before {
				code = append(code, nop...)
			}
			code = append(code, encodeInsns(t, ins)...)
		}
	}
	code = append(code, encodeInsns(t, isa.Instruction{Op: isa.OpHALT})...)
	im := image.New()
	im.Entry = image.DefaultTextBase
	if err := im.AddSegment(image.Segment{Name: "text", Addr: im.Entry, Data: code}); err != nil {
		t.Fatal(err)
	}
	return im
}

// fetchSweep translates from every block entry reachable in im's text — the
// segment start, the entry point, and every block's end and static
// successors — with translate and with refTranslate, and requires the same
// block or the same error from both. The addresses translate leaves in
// pcBuf, and the ones the executors derive from startPC and the op sizes,
// must be the reference's too.
func fetchSweep(t *testing.T, e *Engine, im *image.Image) (blocks int) {
	t.Helper()
	text, ok := im.Text()
	if !ok {
		t.Fatal("image has no text segment")
	}
	work := []uint64{text.Addr, im.Entry}
	seen := map[uint64]bool{}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[pc] || pc < text.Addr || pc >= text.Addr+uint64(len(text.Data)) {
			continue
		}
		seen[pc] = true
		got, gerr := e.translate(pc)
		want, wantPCs, werr := refTranslate(e, pc)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("translate(%#x): error %v, reference %v", pc, gerr, werr)
		}
		if gerr != nil {
			work = append(work, pc+4)
			continue
		}
		derived := []uint64{got.startPC}
		for _, ins := range got.ops {
			derived = append(derived, derived[len(derived)-1]+uint64(ins.Size()))
		}
		if end := derived[len(got.ops)]; end != got.endPC {
			t.Fatalf("translate(%#x): the op sizes end the block at %#x, endPC is %#x", pc, end, got.endPC)
		}
		derived = derived[:len(got.ops)]
		if !slices.Equal(e.pcBuf[:len(got.ops)], wantPCs) || !slices.Equal(derived, wantPCs) {
			t.Fatalf("translate(%#x): pcBuf %#x, derived %#x, reference %#x", pc, e.pcBuf[:len(got.ops)], derived, wantPCs)
		}
		if !slices.Equal(got.ops, want.ops) ||
			got.startPC != want.startPC || got.endPC != want.endPC ||
			got.takenPC != want.takenPC || got.fallPC != want.fallPC {
			t.Fatalf("translate(%#x) = %d insns [%#x,%#x) taken %#x fall %#x\nreference    %d insns [%#x,%#x) taken %#x fall %#x",
				pc, len(got.ops), got.startPC, got.endPC, got.takenPC, got.fallPC,
				len(want.ops), want.startPC, want.endPC, want.takenPC, want.fallPC)
		}
		blocks++
		work = append(work, got.endPC, got.takenPC, got.fallPC)
	}
	return blocks
}

// TestFetchDifferential: the page-span fetch and the byte-wise one decode the
// same blocks, whatever the page size and whatever state the code pages are
// in.
func TestFetchDifferential(t *testing.T) {
	runtimeOnly, err := grt.BuildProgram("one.mc", "long main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	cold := coldImage(t, 300)
	images := map[string]func(pageSize int) *image.Image{
		"runtime":  func(int) *image.Image { return runtimeOnly },
		"cold":     func(int) *image.Image { return cold },
		"boundary": func(ps int) *image.Image { return boundaryImage(t, ps) },
	}
	// Each state is applied to every third text page, starting at the second.
	states := map[string]func(s *mem.Space, pn uint64, content []byte){
		"plain": func(*mem.Space, uint64, []byte) {},
		"split": func(s *mem.Space, pn uint64, content []byte) {
			if err := s.AddRemap(pn, []uint64{1<<30 + 2*pn, 1<<30 + 2*pn + 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteBytes(s.PageAddr(pn), content); err != nil {
				t.Fatal(err)
			}
		},
		"permnone": func(s *mem.Space, pn uint64, _ []byte) { s.SetPerm(pn, mem.PermNone) },
		"absent":   func(s *mem.Space, pn uint64, _ []byte) { s.DropPage(pn) },
	}
	for imName, build := range images {
		for _, pageSize := range []int{mem.DefaultPageSize, 256, 64} {
			for stName, apply := range states {
				t.Run(fmt.Sprintf("%s/page%d/%s", imName, pageSize, stName), func(t *testing.T) {
					im := build(pageSize)
					space := mem.NewSpace(pageSize)
					mem.InstallImage(space, im, mem.PermRead, mem.PermReadWrite)
					text, _ := im.Text()
					first, last := space.PageOf(text.Addr), space.PageOf(text.Addr+uint64(len(text.Data))-1)
					for pn := first + 1; pn <= last; pn += 3 {
						apply(space, pn, slices.Clone(space.PageData(pn)))
					}
					if n := fetchSweep(t, NewEngine(space, DefaultCostModel()), im); n < 2 {
						t.Errorf("only %d blocks compared", n)
					}
				})
			}
		}
	}
}

// splitCodeSpace returns a space whose page 16 is split over shadows 100 and
// 101, with a counting loop at the start of the page (shadow 100's half) that
// jumps through a block in shadow 101's half on every iteration:
//
//	loop: addi s0, s0, 1 ; addi s1, s1, 1 ; j far
//	far:  j loop
func splitCodeSpace(t *testing.T) (space *mem.Space, entry uint64) {
	t.Helper()
	space = mem.NewSpace(0)
	if err := space.AddRemap(16, []uint64{100, 101}); err != nil {
		t.Fatal(err)
	}
	entry = space.PageAddr(16)
	half := int64(space.PageSize() / 2)
	loop := encodeInsns(t,
		isa.Instruction{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: 1},
		isa.Instruction{Op: isa.OpADDI, Rd: isa.RegS0 + 1, Rs1: isa.RegS0 + 1, Imm: 1},
		isa.Instruction{Op: isa.OpJAL, Imm: (half - 8) / 4})
	far := encodeInsns(t, isa.Instruction{Op: isa.OpJAL, Imm: -half / 4})
	if err := space.WriteBytes(entry, loop); err != nil {
		t.Fatal(err)
	}
	if err := space.WriteBytes(entry+uint64(half), far); err != nil {
		t.Fatal(err)
	}
	return space, entry
}

// TestInvalidateShadowOfSplitCodePage: the coherence layer invalidates pages
// by protocol number, which for a split page is the shadow's. Code translated
// from a split page must be registered under those numbers, on both
// executors.
func TestInvalidateShadowOfSplitCodePage(t *testing.T) {
	t.Run("lookup", func(t *testing.T) {
		space, entry := splitCodeSpace(t)
		e := NewEngine(space, DefaultCostModel())
		var spent int64
		if _, err := e.lookup(entry, &spent); err != nil {
			t.Fatal(err)
		}
		if _, ok := e.codePages[100]; !ok || len(e.codePages) != 1 {
			t.Errorf("codePages = %v, want the shadow {100}", e.codePages)
		}
		if e.InvalidatePage(101); e.Stats.Flushes != 0 {
			t.Error("invalidating a shadow no code was translated from flushed the cache")
		}
		if e.InvalidatePage(100); e.Stats.Flushes != 1 {
			t.Error("invalidating the shadow the block was translated from left it cached")
		}
	})

	tiers := map[string]func(*Engine){
		"block": func(e *Engine) { e.NoSuperblock = true },
		"tier3": func(*Engine) {}, // compiled traces, named as Stats names them
	}
	for name, tune := range tiers {
		for _, shadow := range []uint64{100, 101} {
			t.Run(fmt.Sprintf("%s/shadow%d", name, shadow), func(t *testing.T) {
				space, entry := splitCodeSpace(t)
				e := NewEngine(space, DefaultCostModel())
				e.HotThreshold = 2
				tune(e)
				cpu := &CPU{PC: entry, TID: 1}
				for i := 0; i < 64; i++ {
					if res := e.Exec(cpu, 2_000); res.Reason != StopBudget {
						t.Fatalf("heat run stopped: %+v", res)
					}
				}
				if compiled := e.Stats.Tier3Insns != 0; compiled != (name == "tier3") {
					t.Fatalf("loop is not running on the %s executor: %+v", name, e.Stats)
				}
				if cpu.X[isa.RegS0] != cpu.X[isa.RegS0+1] {
					t.Fatalf("before the patch: s0=%d s1=%d", cpu.X[isa.RegS0], cpu.X[isa.RegS0+1])
				}

				// Another node writes the shadow: in its first half the loop
				// now adds 2 to s0, in its second the far block stops the run.
				half := uint64(space.PageSize() / 2)
				patchAt, patch := entry, isa.Instruction{Op: isa.OpADDI, Rd: isa.RegS0, Rs1: isa.RegS0, Imm: 2}
				if shadow == 101 {
					patchAt, patch = entry+half, isa.Instruction{Op: isa.OpHALT}
				}
				if err := space.WriteBytes(patchAt, encodeInsns(t, patch)); err != nil {
					t.Fatal(err)
				}
				e.InvalidatePage(shadow)
				if e.Stats.Flushes != 1 {
					t.Fatalf("InvalidatePage(%d) did not flush translations of the split page", shadow)
				}
				cpu.X[isa.RegS0], cpu.X[isa.RegS0+1], cpu.PC = 0, 0, entry
				res := e.Exec(cpu, 2_000)
				if shadow == 101 {
					if res.Reason != StopHalt {
						t.Errorf("stale far block ran: %+v", res)
					}
				} else if s0, s1 := cpu.X[isa.RegS0], cpu.X[isa.RegS0+1]; s1 == 0 || s0 != 2*s1 {
					t.Errorf("stale loop body ran: s0=%d s1=%d, want s0 = 2*s1", s0, s1)
				}
			})
		}
	}
}

// hotLoops is two loops that get hot one after the other, so one engine
// builds and closure-compiles two traces.
const hotLoops = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 300
	li   s3, 0x20000
first:
	sd   s1, 0(s3)
	ld   t0, 0(s3)
	add  s0, s0, t0
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, first
	li   s1, 0
second:
	hint 3
	sd   s0, 8(s3)
	ld   t1, 8(s3)
	addi t1, t1, 5
	xor  s0, s0, t1
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, second
	halt
`

// scratchLoops is hotLoops with a memory run of three in its first loop whose
// middle access writes a page of its own, a jump into that loop, so the
// first iteration already runs its trace, and an add of the counter for
// hotLoops' xor, whose s0 ends at -5 from any start: here the final s0 is
// the sum of every iteration of both loops.
const scratchLoops = `
_start:
	li   s0, 0
	li   s1, 0
	li   s2, 300
	li   s3, 0x20000
	li   s4, 0x21000
	j    first
first:
	sd   s1, 0(s3)
	sd   s0, 0(s4)
	ld   t0, 0(s3)
	add  s0, s0, t0
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, first
	li   s1, 0
second:
	hint 3
	sd   s0, 8(s3)
	ld   t1, 8(s3)
	addi t1, t1, 5
	add  s0, s1, t1
	addi s1, s1, 1
	slt  t0, s1, s2
	bnez t0, second
	halt
`

// scribble overwrites the whole backing array of a scratch stream with a uop
// no trace lowers: a closure that still read the stream would run it.
func scribble(buf []uop) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = uop{kind: uEbreakExit, imm: -3, val: 0xbad, pc: 0xbad0, npc: 0xbad4,
			cost: -7, selfCost: -7, insns: 9, exit: 7,
			rd: 13, rs1: 13, rs2: 13, size: 3, sh: 9, op: isa.OpHALT, selfInsns: 9}
	}
}

// TestCompiledTraceOwnsNoScratch builds two traces back to back on one
// engine, the first demoted by -verify to its reference lowering, and after
// each install overwrites the backing arrays of the translator's uop scratch
// with garbage: a compiled trace must keep nothing that reads them. Both
// loops then run to the interpreter's final state and instruction count,
// through a page fault on the middle access of a memory run.
func TestCompiledTraceOwnsNoScratch(t *testing.T) {
	const faultPage = 0x21000
	// run executes cpu to its halt with faultPage revoked until it faults,
	// and returns where it did.
	run := func(e *Engine, cpu *CPU) (faultPC uint64) {
		t.Helper()
		e.Mem.SetPerm(e.Mem.PageOf(faultPage), mem.PermNone)
		for i := 0; ; i++ {
			switch res := e.Exec(cpu, 10_000_000); {
			case res.Reason == StopHalt:
				return faultPC
			case res.Reason == StopPageFault && faultPC == 0:
				faultPC = cpu.PC
				e.Mem.SetPerm(res.Fault.Page, mem.PermReadWrite)
			case res.Reason != StopBudget || i == 1000:
				t.Fatalf("stop: %+v", res)
			}
		}
	}
	_, ref, want, im := setupImage(t, scratchLoops)
	ref.NoCache, ref.NoSuperblock = true, true
	wantFault := run(ref, want)
	if wantFault != im.Symbols["first"]+4 {
		t.Fatalf("the interpreter faulted at %#x, not at the run's middle access", wantFault)
	}

	// Heat both loops on the block interpreter, so their heads carry branch bias.
	_, e, cpu, _ := setupImage(t, scratchLoops)
	e.NoSuperblock = true
	if res := runToStop(t, e, cpu); res.Reason != StopHalt {
		t.Fatalf("stop: %+v", res)
	}
	e.NoSuperblock, e.Verify = false, true
	// Grown as a busy engine's are, so both lowerings land in one array each
	// and the scribbles reach every uop either trace was compiled from.
	e.uopBuf, e.refBuf = make([]uop, 0, 256), make([]uop, 0, 256)
	bufs := [2]*uop{&e.uopBuf[:1][0], &e.refBuf[:1][0]}
	var spent int64
	for i, label := range []string{"first", "second"} {
		head := e.cache[im.Symbols[label]]
		if head == nil {
			t.Fatalf("no cached block at %s", label)
		}
		// promote, with an unsound rewrite of the first trace between
		// lowering and proof: its first addi adds one too many.
		sb, ops, refOps := e.lowerTrace(head)
		if i == 0 {
			ops[slices.IndexFunc(ops, func(u uop) bool { return isAddi(&u) })].imm++
		}
		ops = e.finishTrace(sb, ops, refOps, &spent)
		if !e.install(head, sb, ops, e.compileTier3(sb, ops)) {
			t.Fatalf("trace at %s was not installed", label)
		}
		scribble(e.uopBuf)
		scribble(e.refBuf)
	}
	if e.Stats.VerifyDemotions != 1 || e.Stats.VerifiedSuperblocks != 1 {
		t.Fatalf("%d traces demoted, %d proved; want one of each", e.Stats.VerifyDemotions, e.Stats.VerifiedSuperblocks)
	}
	if bufs != [2]*uop{&e.uopBuf[:1][0], &e.refBuf[:1][0]} {
		t.Fatal("a lowering outgrew the scratch arrays: the scribbles missed an array a trace was compiled from")
	}

	*cpu = CPU{PC: im.Entry, TID: 1}
	cpu.X[isa.RegSP] = 0x40000
	insns, compiled := e.Stats.ExecInsns, e.Stats.Tier3Insns
	if got := run(e, cpu); got != wantFault {
		t.Errorf("faulted at %#x, the interpreter at %#x", got, wantFault)
	}
	if e.Stats.Tier3Insns == compiled {
		t.Error("the rerun did not execute the compiled traces")
	}
	if cpu.X != want.X || cpu.PC != want.PC {
		t.Errorf("diverged from the interpreter:\n got pc=%#x x=%v\nwant pc=%#x x=%v", cpu.PC, cpu.X, want.PC, want.X)
	}
	if got := e.Stats.ExecInsns - insns; got != ref.Stats.ExecInsns {
		t.Errorf("retired %d instructions, the interpreter %d", got, ref.Stats.ExecInsns)
	}
}

// TestColdPathNotReentered: the translator's scratch buffers assume that
// translate, buildTrace and compileTier3 never run inside one another
// (coldDepth asserts it), and the engine assumes its cache is flushed only
// between Exec calls. The sanitizer's execute-path callbacks run with the
// translator idle, and one that flushes the cache or re-enters Exec from
// inside a run — on cached blocks or in a compiled trace — panics instead of
// leaving stale code running.
func TestColdPathNotReentered(t *testing.T) {
	want, _ := tier3State(t, hotLoops, nil)

	loads := 0
	got, e := tier3State(t, hotLoops, func(e *Engine) {
		e.Verify = true
		e.San = hookSan(func() {
			if loads++; e.coldDepth != 0 {
				t.Errorf("sanitizer hook fired with the translator active (depth %d)", e.coldDepth)
			}
		})
	})
	if loads == 0 || e.coldDepth != 0 || e.Stats.Tier3Insns == 0 {
		t.Errorf("%d hook calls, translator depth %d, %d compiled instructions after the run",
			loads, e.coldDepth, e.Stats.Tier3Insns)
	}
	if got.X != want.X || got.PC != want.PC {
		t.Errorf("a hooked run changed the program:\n got pc=%#x x=%v\nwant pc=%#x x=%v", got.PC, got.X, want.PC, want.X)
	}

	for _, compiled := range []bool{false, true} {
		for name, reenter := range map[string]func(*Engine){
			"ClearCache": (*Engine).ClearCache,
			"Exec":       func(e *Engine) { e.Exec(&CPU{TID: 2}, 1_000) },
		} {
			t.Run(fmt.Sprintf("%s/compiled=%v", name, compiled), func(t *testing.T) {
				_, e, cpu, _ := setupImage(t, hotLoops)
				e.NoSuperblock = !compiled
				e.HotThreshold = 2
				loads := 0
				e.San = hookSan(func() {
					// The first loop's 100th load: inside its compiled trace,
					// if it may have one.
					if loads++; loads == 100 {
						reenter(e)
					}
				})
				defer func() {
					if r := recover(); r == nil || loads != 100 {
						t.Errorf("%s from inside Exec at load %d: recovered %v; want a panic", name, loads, r)
					} else if ran := e.Stats.Tier3Superblocks != 0; ran != compiled {
						t.Errorf("%d traces compiled before the hook fired", e.Stats.Tier3Superblocks)
					}
				}()
				runToStop(t, e, cpu)
			})
		}
	}
}

// hookSan is a sanitizer hook that calls fn on every load.
type hookSan func()

func (fn hookSan) OnLoad(int64, uint64, int, uint64)                     { fn() }
func (hookSan) OnStore(int64, uint64, int, uint64)                       {}
func (hookSan) OnAtomic(int64, uint64, int, uint64, bool)                {}
func (hookSan) OnFence(int64)                                            {}
func (hookSan) LintBlock([]isa.Instruction, []uint64, func(uint64) bool) {}

// TestColdPathReusesPlanAndSlab: replanning a trace reuses the engine's
// plan, and a two-access memory run takes two slots of the access slab, not
// the t3MemRun its closure's array type could index.
func TestColdPathReusesPlanAndSlab(t *testing.T) {
	var log *[]compiledStream
	_, e := tier3State(t, hotLoops, func(e *Engine) { log = recordCompiles(e) })
	if len(*log) == 0 {
		t.Fatal("no compiled trace produced")
	}
	c := (*log)[0]
	if n := testing.AllocsPerRun(100, func() {
		if !planTier3(&e.plan, c.ops) {
			t.Fatal("plan failed")
		}
	}); n != 0 {
		t.Errorf("replanning allocates %v objects, want 0", n)
	}
	runs, accs := 0, 0
	for _, seg := range e.plan.segs {
		for gi, start := range seg.groups {
			end := len(seg.units)
			if gi+1 < len(seg.groups) {
				end = seg.groups[gi+1]
			}
			if end-start > 1 {
				runs, accs = runs+1, accs+end-start
			}
		}
	}
	if runs == 0 || accs >= runs*t3MemRun {
		t.Fatalf("test loop has %d memory runs of %d accesses; want short runs", runs, accs)
	}
	e.accs = slab[memAcc]{}
	if e.compileTier3(c.sb, c.ops) == nil {
		t.Fatal("recompilation failed")
	}
	if used := 16*t3MemRun - len(e.accs.free); e.accs.used != 1 || used != accs {
		t.Errorf("compiling %d accesses in %d runs took %d slab slots", accs, runs, used)
	}
}
