package tcg

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dqemu/internal/isa"
	"dqemu/internal/mem"
)

// The block interpreter is the reference the tier differentials hold the
// compiled traces to, and it reads guest memory through the engine's inline
// TLB, as they do. FuzzBlockMemory is the oracle for that TLB: it holds the
// block interpreter, cached (NoSuperblock) and retranslating (NoCache), to a
// replay of the same accesses on a bare mem.Space while the pages under them
// are installed, dropped, re-permissioned and split between Exec calls.

const (
	bmCode = 0x40000  // where each step's block is written
	bmData = 0x100000 // the first data page; page-aligned at every page size
	// bmPages data pages from bmData; their shadows start bmShadow pages
	// further on, a multiple of accelTLBSize, so a shadow shares its
	// original's TLB line.
	bmPages  = 4
	bmShadow = accelTLBSize
)

// bmOps are the accesses the fuzzer draws from.
var bmOps = [...]isa.Op{isa.OpLD, isa.OpSD, isa.OpFLD, isa.OpFSD, isa.OpLBU, isa.OpSB, isa.OpLW, isa.OpSW}

// Base registers: x10 the start of data page 0, x11 4 bytes before its end
// (an 8-byte access from there crosses into page 1), x12 misaligned in page
// 1, x13 the start of page 3 (read-only at first), x14 a page that is never
// resident, and x15 page 0's first shadow, which shares its TLB line.
const bmBases = 6

// Value registers: x5..x9 for integers, x0 as the sixth; f1..f4 for floats.
const bmVals = 6

func bmIntReg(val uint8) uint8 {
	if val == 5 {
		return 0
	}
	return 5 + val
}

// bmSteps caps a script.
const bmSteps = 48

// bmScript reads a fuzz script a byte at a time; past its end it reads 0.
type bmScript struct {
	b []byte
	i int
}

func (s *bmScript) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

func (s *bmScript) done() bool { return s.i >= len(s.b) }

// bmMachine is one executor under test: an engine on its own space.
type bmMachine struct {
	name  string
	space *mem.Space
	e     *Engine
	cpu   CPU
}

// bmRef is the replay: the same registers and accesses on a bare space.
type bmRef struct {
	space *mem.Space
	x     [32]uint64
	f     [32]float64
}

// step replays ins, reporting the fault that stopped it, if any.
func (r *bmRef) step(ins isa.Instruction) *mem.Fault {
	addr := r.x[ins.Rs1] + uint64(ins.Imm)
	var v uint64
	var fl *mem.Fault
	switch ins.Op {
	case isa.OpLD:
		v, fl = r.space.Load(addr, 8)
	case isa.OpLBU:
		v, fl = r.space.Load(addr, 1)
	case isa.OpLW:
		v, fl = r.space.Load(addr, 4)
		v = uint64(int64(int32(v)))
	case isa.OpFLD:
		var d float64
		if d, fl = r.space.LoadF64(addr); fl == nil {
			r.f[ins.Rd] = d
		}
		return fl
	case isa.OpSD:
		return r.space.Store(addr, r.x[ins.Rs2], 8)
	case isa.OpSB:
		return r.space.Store(addr, r.x[ins.Rs2], 1)
	case isa.OpSW:
		return r.space.Store(addr, r.x[ins.Rs2], 4)
	case isa.OpFSD:
		return r.space.StoreF64(addr, r.f[ins.Rs2])
	}
	if fl == nil && ins.Rd != 0 {
		r.x[ins.Rd] = v
	}
	return fl
}

// runBlockMemory runs one script at one page size. The script is a list of
// steps, each picked by its first byte:
//
//	0-3  write a new block of 1-16 accesses and run it; an access is three
//	     bytes: its op (bmOps), base|value<<3 registers, and its immediate
//	     (imms)
//	4    resume the block a fault stopped, if any
//	5    install a data page with a fill byte and a permission
//	6    drop a page
//	7    set a page's permission
//	8    split a data page over two or four of its shadows
func runBlockMemory(t *testing.T, pageSize int, script []byte) {
	t.Helper()
	ps := uint64(pageSize)
	ref := &bmRef{space: mem.NewSpace(pageSize)}
	ms := []*bmMachine{{name: "block"}, {name: "interp"}}
	spaces := []*mem.Space{ref.space}
	for _, m := range ms {
		m.space = mem.NewSpace(pageSize)
		m.e = NewEngine(m.space, DefaultCostModel())
		m.e.NoSuperblock = true
		m.e.NoCache = m.name == "interp"
		spaces = append(spaces, m.space)
	}
	first := bmData / ps
	// pages is every page a mutation may touch: the data pages and their
	// shadows (never the code).
	var pages []uint64
	for k := uint64(0); k < bmPages; k++ {
		pages = append(pages, first+k)
	}
	for k := uint64(0); k < 2*bmPages; k++ {
		pages = append(pages, first+bmShadow+k)
	}
	fill := func(b byte) []byte {
		d := make([]byte, pageSize)
		for i := range d {
			d[i] = b + byte(i*7)
		}
		return d
	}
	for k, pn := range pages[:bmPages] {
		perm := mem.PermReadWrite
		if k == bmPages-1 {
			perm = mem.PermRead
		}
		for _, s := range spaces {
			s.InstallPage(pn, fill(byte(k*41)), perm)
		}
	}

	regs := func(x *[32]uint64, f *[32]float64) {
		for r := 5; r <= 9; r++ {
			x[r] = 0x0123456789abcdef * uint64(r)
		}
		for r := 1; r <= 4; r++ {
			f[r] = float64(r) * 1.25
		}
		x[10] = bmData
		x[11] = bmData + ps - 4
		x[12] = bmData + ps + 3
		x[13] = bmData + 3*ps
		x[14] = bmData + 64*ps*ps
		x[15] = bmData + bmShadow*ps
	}
	regs(&ref.x, &ref.f)
	for _, m := range ms {
		m.cpu = CPU{TID: 1}
		regs(&m.cpu.X, &m.cpu.F)
	}
	imms := []int64{0, 3, 8, -1, -8, int64(ps) - 8, int64(ps) - 4, int64(ps) - 3, int64(ps) - 1, 2*int64(ps) - 2}

	sc := &bmScript{b: script}
	var block []isa.Instruction // the block being run, HALT excluded
	var pcs []uint64            // its instructions' addresses
	next := -1                  // index of the instruction to resume at; -1: none
	codeAt := uint64(bmCode)

	// run executes block from next on every machine and on the replay.
	run := func(step int) {
		want := struct {
			fault  *mem.Fault
			insns  uint64
			timeNs int64
		}{}
		cost := DefaultCostModel()
		k := next
		for ; k < len(block); k++ {
			want.insns++
			want.timeNs += cost.MemOpNs
			if want.fault = ref.step(block[k]); want.fault != nil {
				want.timeNs += cost.FaultNs
				break
			}
		}
		if want.fault == nil {
			want.insns++ // the HALT
			want.timeNs += cost.IntOpNs
		}
		for _, m := range ms {
			where := fmt.Sprintf("page %d, step %d, %s", pageSize, step, m.name)
			m.cpu.PC = pcs[next]
			before := m.e.Stats
			res := m.e.Exec(&m.cpu, 1<<40)
			switch {
			case want.fault == nil && res.Reason != StopHalt:
				t.Fatalf("%s: stopped %s (%+v), the replay ran to the end", where, res.Reason, res.Fault)
			case want.fault != nil && (res.Reason != StopPageFault || res.Fault != *want.fault):
				t.Fatalf("%s: stopped %s with %+v, the replay faulted with %+v at %s",
					where, res.Reason, res.Fault, *want.fault, block[k].Op)
			case want.fault != nil && m.cpu.PC != pcs[k]:
				t.Fatalf("%s: faulted with PC %#x, want the faulting access's %#x", where, m.cpu.PC, pcs[k])
			}
			if got := m.e.Stats.ExecInsns - before.ExecInsns; got != want.insns {
				t.Errorf("%s: retired %d instructions, want %d", where, got, want.insns)
			}
			translate := m.e.Stats.TranslateNs - before.TranslateNs
			if got := res.TimeNs - translate; got != want.timeNs {
				t.Errorf("%s: charged %d ns besides translation, want %d", where, got, want.timeNs)
			}
			if m.cpu.X != ref.x {
				t.Fatalf("%s: integer registers\n got  %x\n want %x", where, m.cpu.X, ref.x)
			}
			for r := range ref.f {
				if math.Float64bits(m.cpu.F[r]) != math.Float64bits(ref.f[r]) {
					t.Fatalf("%s: f%d = %v, want %v", where, r, m.cpu.F[r], ref.f[r])
				}
			}
			if m.space.Faults != ref.space.Faults {
				t.Fatalf("%s: Space.Faults = %d, want %d", where, m.space.Faults, ref.space.Faults)
			}
			for _, pn := range pages {
				if m.space.PermOf(pn) != ref.space.PermOf(pn) || string(m.space.PageData(pn)) != string(ref.space.PageData(pn)) {
					t.Fatalf("%s: page %#x differs from the replay's", where, pn)
				}
			}
		}
		next = -1
		if want.fault != nil {
			next = k
		}
	}

	for step := 0; step < bmSteps && !sc.done(); step++ {
		op := sc.next()
		switch op % 9 {
		case 0, 1, 2, 3:
			n := 1 + int(sc.next()%16)
			block, pcs, next = block[:0], pcs[:0], 0
			for k := 0; k < n; k++ {
				ins := isa.Instruction{Op: bmOps[sc.next()%byte(len(bmOps))]}
				regSel := sc.next()
				ins.Rs1 = 10 + regSel%8%bmBases
				val := (regSel >> 3) % bmVals
				ins.Imm = imms[sc.next()%byte(len(imms))]
				switch ins.Op {
				case isa.OpFLD:
					ins.Rd = 1 + val%4
				case isa.OpFSD:
					ins.Rs2 = 1 + val%4
				case isa.OpSD, isa.OpSB, isa.OpSW:
					ins.Rs2 = bmIntReg(val)
				default:
					ins.Rd = bmIntReg(val)
				}
				block = append(block, ins)
				pcs = append(pcs, codeAt+4*uint64(k)) // every access is one word
			}
			code := encodeInsns(t, append(block, isa.Instruction{Op: isa.OpHALT})...)
			for _, m := range ms {
				if err := m.space.WriteBytes(codeAt, code); err != nil {
					t.Fatal(err)
				}
			}
			codeAt += uint64(len(code)+63) &^ 63
			run(step)
		case 4:
			if next >= 0 {
				run(step)
			}
		case 5:
			pn, b, perm := pages[sc.next()%byte(len(pages))], sc.next(), mem.Perm(sc.next()%3)
			for _, s := range spaces {
				s.InstallPage(pn, fill(b), perm)
			}
		case 6:
			pn := pages[sc.next()%byte(len(pages))]
			for _, s := range spaces {
				s.DropPage(pn)
			}
		case 7:
			pn, perm := pages[sc.next()%byte(len(pages))], mem.Perm(sc.next()%3)
			for _, s := range spaces {
				s.SetPerm(pn, perm)
			}
		case 8:
			sel := sc.next()
			orig := first + uint64(sel%bmPages)
			n := uint64(2)
			if sel&0x80 != 0 {
				n = 4
			}
			shadows := make([]uint64, n)
			for k := range shadows {
				shadows[k] = first + bmShadow + (uint64(sel/bmPages)+uint64(k))%(2*bmPages)
			}
			wantErr := ref.space.AddRemap(orig, shadows)
			for _, m := range ms {
				if err := m.space.AddRemap(orig, shadows); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: AddRemap(%#x, %#x) = %v, the replay's %v", m.name, orig, shadows, err, wantErr)
				}
			}
		}
	}
}

// Script builders for the seeds, in runBlockMemory's format. An access names
// its registers by number: a base x10-x15, a value x5-x9 or x0, or f1-f4 for
// fld and fsd. Pages are
// indices into its pages: 0-3 the data pages, 4-11 the shadows (4 and 5 are
// page 0's when bmSplit splits it with shadow 0).
func bmAcc(op isa.Op, base, val, imm int) []byte {
	switch {
	case op == isa.OpFLD || op == isa.OpFSD:
		val-- // f1..f4
	case val == 0:
		val = 5
	default:
		val -= 5 // x5..x9
	}
	return []byte{byte(slices.Index(bmOps[:], op)), byte(base - 10 | val<<3), byte(imm)}
}

func bmBlock(accs ...[]byte) []byte {
	return append([]byte{0, byte(len(accs) - 1)}, slices.Concat(accs...)...)
}

var bmResume = []byte{4}

func bmInstall(page, fill int, perm mem.Perm) []byte {
	return []byte{5, byte(page), byte(fill), byte(perm)}
}
func bmDrop(page int) []byte                   { return []byte{6, byte(page)} }
func bmSetPerm(page int, perm mem.Perm) []byte { return []byte{7, byte(page), byte(perm)} }
func bmSplit(page, shadow int, four bool) []byte {
	sel := byte(page + bmPages*shadow)
	if four {
		sel |= 0x80
	}
	return []byte{8, sel}
}

// Immediates, as indices into runBlockMemory's imms.
const (
	imm0, imm3, imm8, immM1, immM8, immPSm8, immPSm4, immPSm3, immPSm1, imm2PSm2 = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
)

// bmSeeds are FuzzBlockMemory's corpus and TestBlockMemory's table, each run
// at every page size.
var bmSeeds = []struct {
	name   string
	script []byte
}{
	// Fill both TLBs from page 0 with every access kind, hit the lines,
	// then cross into page 1 from the end of page 0.
	{"fill-then-cross", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 10, 5, imm0), bmAcc(isa.OpSD, 10, 5, imm8), bmAcc(isa.OpFSD, 10, 1, imm3),
			bmAcc(isa.OpFLD, 10, 2, imm3), bmAcc(isa.OpLBU, 10, 6, imm8), bmAcc(isa.OpSB, 10, 7, imm3),
			bmAcc(isa.OpLW, 10, 8, imm3), bmAcc(isa.OpSW, 10, 9, imm8), bmAcc(isa.OpLD, 10, 9, imm3)),
		bmBlock(bmAcc(isa.OpLD, 11, 5, imm0), bmAcc(isa.OpSD, 11, 6, imm3), bmAcc(isa.OpLW, 10, 7, immPSm3),
			bmAcc(isa.OpSW, 10, 8, immPSm1), bmAcc(isa.OpFSD, 10, 3, immPSm4), bmAcc(isa.OpFLD, 11, 4, imm0),
			bmAcc(isa.OpLD, 10, 9, immPSm8), bmAcc(isa.OpSD, 10, 9, immPSm1))),
	},
	// Fill from page 0, drop it: the next access misses on the stale line
	// and faults, and after the page comes back with new bytes the resumed
	// block reads them.
	{"drop-after-fill", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 10, 5, imm0), bmAcc(isa.OpSD, 10, 6, imm8)),
		bmDrop(0),
		bmBlock(bmAcc(isa.OpLD, 10, 7, imm8), bmAcc(isa.OpSB, 10, 8, imm3)),
		bmInstall(0, 99, mem.PermRead), bmResume,
		bmInstall(0, 17, mem.PermReadWrite), bmResume),
	},
	// Downgrade a written page to read-only: loads still hit, the store
	// faults, and succeeds when resumed after the upgrade.
	{"downgrade-store", slices.Concat(
		bmBlock(bmAcc(isa.OpSD, 10, 5, imm0), bmAcc(isa.OpFSD, 10, 1, imm8)),
		bmSetPerm(0, mem.PermRead),
		bmBlock(bmAcc(isa.OpLD, 10, 7, imm0), bmAcc(isa.OpFSD, 10, 2, imm8), bmAcc(isa.OpLD, 10, 8, imm8)),
		bmSetPerm(0, mem.PermReadWrite), bmResume,
		bmSetPerm(0, mem.PermNone),
		bmBlock(bmAcc(isa.OpLBU, 10, 9, imm3)), bmSetPerm(0, mem.PermRead), bmResume),
	},
	// Split page 0 over two shadows, the first of which shares its TLB
	// line, and reach both halves as the shadows arrive.
	{"split-after-fill", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 10, 5, imm0), bmAcc(isa.OpSD, 10, 6, immPSm8)),
		bmSplit(0, 0, false),
		bmBlock(bmAcc(isa.OpLD, 10, 7, imm8), bmAcc(isa.OpSD, 10, 8, immPSm8), bmAcc(isa.OpLD, 11, 9, imm0)),
		bmInstall(4, 5, mem.PermReadWrite), bmResume,
		bmInstall(5, 6, mem.PermReadWrite), bmResume,
		bmBlock(bmAcc(isa.OpLD, 15, 5, imm0), bmAcc(isa.OpSD, 15, 6, imm8), bmAcc(isa.OpLD, 10, 7, imm8))),
	},
	// Page 0 and its first shadow, both resident, on one TLB line: each
	// access evicts the other's page.
	{"line-conflict", slices.Concat(
		bmInstall(4, 200, mem.PermReadWrite),
		bmBlock(bmAcc(isa.OpLD, 10, 5, imm0), bmAcc(isa.OpLD, 15, 6, imm0), bmAcc(isa.OpLD, 10, 7, imm8),
			bmAcc(isa.OpSD, 15, 5, imm8), bmAcc(isa.OpSD, 10, 6, imm8), bmAcc(isa.OpSD, 15, 7, imm3),
			bmAcc(isa.OpLD, 15, 8, imm8), bmAcc(isa.OpLBU, 10, 9, imm8))),
	},
	// Drop page 0 and install its line-sharing shadow on the freed buffer:
	// the line filled from the old page must not serve the new one.
	{"reuse-buffer", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 10, 5, imm0), bmAcc(isa.OpSD, 10, 6, imm8)),
		bmDrop(0), bmInstall(4, 77, mem.PermReadWrite),
		bmBlock(bmAcc(isa.OpLD, 15, 7, imm0), bmAcc(isa.OpLD, 10, 8, imm0))),
	},
	// Misaligned accesses at every base, across page ends, into absent
	// pages and into x0.
	{"misaligned", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 12, 5, imm0), bmAcc(isa.OpSD, 12, 6, imm3), bmAcc(isa.OpLW, 12, 0, imm0),
			bmAcc(isa.OpSW, 11, 7, imm3), bmAcc(isa.OpLD, 12, 0, immPSm4), bmAcc(isa.OpFLD, 12, 1, immPSm8),
			bmAcc(isa.OpSB, 12, 0, immM1), bmAcc(isa.OpLD, 10, 8, immM1)),
		bmResume, bmInstall(0, 1, mem.PermReadWrite),
		bmBlock(bmAcc(isa.OpSD, 11, 9, imm3), bmAcc(isa.OpLD, 10, 5, imm2PSm2), bmAcc(isa.OpSD, 14, 6, imm0))),
	},
	// A read-only page: loads hit, stores fault every time.
	{"read-only", slices.Concat(
		bmBlock(bmAcc(isa.OpLD, 13, 5, imm0), bmAcc(isa.OpLBU, 13, 6, imm3), bmAcc(isa.OpSB, 13, 7, imm3)),
		bmResume,
		bmBlock(bmAcc(isa.OpFLD, 13, 1, imm8), bmAcc(isa.OpFSD, 13, 1, imm8)), bmResume),
	},
}

// bmPageSize maps a page-size selector to the page size.
func bmPageSize(sel uint8) int { return [...]int{mem.DefaultPageSize, 256, 64}[sel%3] }

// TestBlockMemory runs FuzzBlockMemory's seeds at every page size.
func TestBlockMemory(t *testing.T) {
	for _, sd := range bmSeeds {
		for sel := uint8(0); sel < 3; sel++ {
			t.Run(fmt.Sprintf("%s/page%d", sd.name, bmPageSize(sel)), func(t *testing.T) {
				runBlockMemory(t, bmPageSize(sel), sd.script)
			})
		}
	}
}

// FuzzBlockMemory: whatever accesses a block makes and whatever happens to
// the pages between runs, the block interpreter's registers, memory, faults
// and fault count are the bare softmmu's.
func FuzzBlockMemory(f *testing.F) {
	for _, sd := range bmSeeds {
		for sel := uint8(0); sel < 3; sel++ {
			f.Add(sel, sd.script)
		}
	}
	f.Fuzz(func(t *testing.T, pageSel uint8, script []byte) {
		runBlockMemory(t, bmPageSize(pageSel), script)
	})
}

// TestBlockMemoryAllocs: a block of loads, stores and an atomic that hit the
// TLB runs without allocating.
func TestBlockMemoryAllocs(t *testing.T) {
	space := mem.NewSpace(0)
	space.InstallPage(space.PageOf(bmData), nil, mem.PermReadWrite)
	loop := []isa.Instruction{
		{Op: isa.OpLD, Rd: 5, Rs1: 10},
		{Op: isa.OpSD, Rs1: 10, Rs2: 5, Imm: 8},
		{Op: isa.OpFLD, Rd: 1, Rs1: 10, Imm: 16},
		{Op: isa.OpFSD, Rs1: 10, Rs2: 1, Imm: 24},
		{Op: isa.OpLBU, Rd: 6, Rs1: 10, Imm: 33},
		{Op: isa.OpSB, Rs1: 10, Rs2: 6, Imm: 34},
		{Op: isa.OpLW, Rd: 7, Rs1: 10, Imm: 36},
		{Op: isa.OpSW, Rs1: 10, Rs2: 7, Imm: 40},
		{Op: isa.OpAMOADD, Rd: 9, Rs1: 10, Rs2: 8},
		{Op: isa.OpADDI, Rd: 8, Rs1: 8, Imm: 1},
		{Op: isa.OpJAL, Imm: -10},
	}
	if err := space.WriteBytes(bmCode, encodeInsns(t, loop...)); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(space, DefaultCostModel())
	e.NoSuperblock = true
	cpu := &CPU{PC: bmCode, TID: 1}
	cpu.X[10] = bmData
	exec := func() {
		if res := e.Exec(cpu, 10_000); res.Reason != StopBudget {
			t.Fatalf("stopped: %+v", res)
		}
	}
	exec() // translate and fill the TLB lines
	if n := testing.AllocsPerRun(100, exec); n != 0 {
		t.Errorf("%v allocations per Exec of a load/store loop", n)
	}
	if cpu.X[8] < 100 {
		t.Fatalf("the loop ran %d times", cpu.X[8])
	}
}
